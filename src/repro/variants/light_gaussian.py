"""LightGaussian: unbounded 3DGS compression via pruning and SH distillation.

LightGaussian (Fan et al., 2023) compresses a trained 3DGS model with three
mechanisms: (1) pruning Gaussians with low *global significance*, (2)
distilling the degree-3 spherical harmonics into a lower degree, and (3)
vectree quantisation of the remaining attributes.  The first two are
re-implemented here; the quantisation stage is subsumed by the paper's own
vector-quantised data layout (``repro.compression``), which STREAMINGGS
applies on top of every base algorithm.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.variants.base import BaseAlgorithm, gaussian_importance, register_algorithm


class LightGaussian(BaseAlgorithm):
    """Global-significance pruning plus SH distillation.

    Parameters
    ----------
    prune_fraction:
        Fraction of Gaussians removed (LightGaussian prunes ~66 % at its
        default setting; we default to 0.6).
    distill_sh_degree:
        Target SH degree after distillation (2 by default — the higher-order
        coefficients are zeroed, which is what reduces the per-Gaussian
        parameter payload).
    opacity_boost:
        Opacity compensation applied to survivors.
    """

    name = "light_gaussian"

    def __init__(
        self,
        prune_fraction: float = 0.6,
        distill_sh_degree: int = 2,
        opacity_boost: float = 1.08,
    ) -> None:
        if not 0.0 <= prune_fraction < 1.0:
            raise ValueError("prune_fraction must be in [0, 1)")
        if distill_sh_degree < 0 or distill_sh_degree > 3:
            raise ValueError("distill_sh_degree must be in [0, 3]")
        self.prune_fraction = prune_fraction
        self.distill_sh_degree = distill_sh_degree
        self.opacity_boost = opacity_boost

    def transform(
        self, model: GaussianModel, cameras: Optional[Sequence[Camera]] = None
    ) -> GaussianModel:
        """Prune low-significance Gaussians and distill SH coefficients."""
        n = len(model)
        keep = max(1, int(round((1.0 - self.prune_fraction) * n)))
        if cameras:
            scores = gaussian_importance(model, cameras)
        else:
            # Global significance without views: opacity x volume (the
            # LightGaussian criterion integrates the Gaussian's footprint
            # over all training views; volume is the view-free analogue).
            scores = model.opacities * np.prod(model.scales, axis=1)
        order = np.argsort(-np.asarray(scores, dtype=np.float64))
        kept_indices = np.sort(order[:keep])

        # SH distillation: zero the coefficients above the target degree.
        # Degree d keeps (d+1)^2 - 1 of the 15 "rest" coefficients.
        keep_rest = (self.distill_sh_degree + 1) ** 2 - 1
        distilled = model.sh_rest[kept_indices]
        distilled[:, keep_rest:, :] = 0.0
        return GaussianModel(
            positions=model.positions[kept_indices],
            scales=model.scales[kept_indices],
            rotations=model.rotations[kept_indices],
            opacities=np.clip(
                model.opacities[kept_indices] * self.opacity_boost, 0.0, 0.99
            ),
            sh_dc=model.sh_dc[kept_indices],
            sh_rest=distilled,
        )


register_algorithm(LightGaussian())
