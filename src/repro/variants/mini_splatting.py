"""Mini-Splatting: representing scenes with a constrained number of Gaussians.

Mini-Splatting (Fang & Wang, 2024) reorganises the spatial distribution of
Gaussians and then *simplifies* the model by keeping only the Gaussians with
the highest rendering importance, compensating the lost opacity so overall
transmittance is preserved.  This re-implementation captures the
simplification stage — the part that matters for the paper's workload
characterisation (fewer, slightly larger Gaussians) and Table II.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.variants.base import BaseAlgorithm, gaussian_importance, register_algorithm


class MiniSplatting(BaseAlgorithm):
    """Importance-weighted stochastic simplification of the Gaussian cloud.

    Parameters
    ----------
    keep_fraction:
        Fraction of Gaussians retained after simplification (Mini-Splatting
        typically keeps 20-40 % of a densified model; the default 0.35
        matches the checkpoint-size ratios reported for the evaluated
        scenes).
    opacity_compensation:
        Factor applied to surviving Gaussians' opacity/scale to compensate
        for removed ones.
    deterministic_fraction:
        Fraction of the kept budget filled greedily with the top-importance
        Gaussians before stochastic sampling fills the rest (Mini-Splatting
        uses importance-weighted sampling rather than pure top-k to avoid
        spatial holes).
    seed:
        Seed of the stochastic sampling stage.
    """

    name = "mini_splatting"

    def __init__(
        self,
        keep_fraction: float = 0.35,
        opacity_compensation: float = 1.12,
        deterministic_fraction: float = 0.6,
        seed: int = 0,
    ) -> None:
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if not 0.0 <= deterministic_fraction <= 1.0:
            raise ValueError("deterministic_fraction must be in [0, 1]")
        self.keep_fraction = keep_fraction
        self.opacity_compensation = opacity_compensation
        self.deterministic_fraction = deterministic_fraction
        self.seed = seed

    def transform(
        self, model: GaussianModel, cameras: Optional[Sequence[Camera]] = None
    ) -> GaussianModel:
        """Simplify ``model`` to ``keep_fraction`` of its Gaussians."""
        n = len(model)
        keep = max(1, int(round(self.keep_fraction * n)))
        if keep >= n:
            return model.copy()
        if cameras:
            scores = gaussian_importance(model, cameras)
        else:
            # Without cameras fall back to a view-independent importance:
            # opacity times world-space cross-section.
            scores = model.opacities * np.square(model.max_scales)
        scores = np.asarray(scores, dtype=np.float64)
        scores = scores + 1e-12

        rng = np.random.default_rng(self.seed)
        n_top = int(round(self.deterministic_fraction * keep))
        order = np.argsort(-scores)
        top_indices = order[:n_top]
        remaining = order[n_top:]
        n_sampled = keep - n_top
        if n_sampled > 0 and len(remaining) > 0:
            probs = scores[remaining] / scores[remaining].sum()
            sampled = rng.choice(
                remaining, size=min(n_sampled, len(remaining)), replace=False, p=probs
            )
            kept_indices = np.concatenate([top_indices, sampled])
        else:
            kept_indices = top_indices
        kept_indices = np.sort(kept_indices)

        # Opacity/scale compensation: surviving Gaussians must cover the
        # holes left by removed ones.
        return GaussianModel(
            positions=model.positions[kept_indices],
            scales=model.scales[kept_indices] * self.opacity_compensation ** 0.5,
            rotations=model.rotations[kept_indices],
            opacities=np.clip(
                model.opacities[kept_indices] * self.opacity_compensation, 0.0, 0.99
            ),
            sh_dc=model.sh_dc[kept_indices],
            sh_rest=model.sh_rest[kept_indices],
        )


register_algorithm(MiniSplatting())
