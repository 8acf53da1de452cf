"""The cross-boundary penalty of the boundary-aware fine-tuning.

The paper's fine-tuning objective (Eq. 1) is ``L = L_origin + beta * L_CBP``
where ``L_origin`` is the original 3DGS photometric loss and ``L_CBP``
(Eq. 2) penalises the scale of Gaussians that are rendered out of depth
order, i.e. Gaussians spanning voxel boundaries.  Without autograd the
fine-tuning (:mod:`repro.training.boundary_finetune`) steps on ``L_CBP``
analytically and lets a trust region stand in for ``L_origin``, so only the
penalty is computed here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.voxel_grid import cross_boundary_mask
from repro.gaussians.model import GaussianModel

#: Default cross-boundary penalty weight (paper Sec. V-A: beta = 0.05).
DEFAULT_BETA = 0.05


def cross_boundary_indicator(
    model: GaussianModel,
    voxel_size: float,
    origin: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The indicator ``T_i`` of Eq. 2.

    The paper defines ``T_i`` through the rendering sequence (a Gaussian is
    flagged when it is rendered after a deeper Gaussian); those out-of-order
    Gaussians are exactly the ones spanning voxel boundaries (Sec. III-B,
    "the incorrect order occurs only when a Gaussian spans across multiple
    voxels"), so the fine-tuning loop uses the geometric spanning test as
    the differentiable stand-in.
    """
    return cross_boundary_mask(model, voxel_size, origin=origin).astype(np.float64)


def cross_boundary_penalty(
    model: GaussianModel,
    voxel_size: float,
    origin: Optional[np.ndarray] = None,
    indicator: Optional[np.ndarray] = None,
) -> float:
    """``L_CBP`` of Eq. 2: mean of ``S_i * T_i`` over all Gaussians.

    ``S_i`` is the maximum scale of Gaussian ``i`` and ``T_i`` flags the
    Gaussians that can be rendered out of depth order.
    """
    if len(model) == 0:
        return 0.0
    if indicator is None:
        indicator = cross_boundary_indicator(model, voxel_size, origin=origin)
    indicator = np.asarray(indicator, dtype=np.float64).reshape(-1)
    if len(indicator) != len(model):
        raise ValueError("indicator length must equal the number of Gaussians")
    return float(np.mean(model.max_scales.astype(np.float64) * indicator))
