"""Per-pixel blending state with array-based per-Gaussian statistics.

:class:`BlendState` is the resumable accumulator of the reference blending
loop (:func:`~repro.engine.kernels.blend_reference`): the tile-centric
rasterizer's reference path blends one tile's full sorted list into a fresh
state, while the streaming pipeline's reference loop resumes the same state
voxel by voxel (the partial pixel values that stay on-chip in Fig. 1b).

The per-Gaussian weight bookkeeping is held in dense NumPy arrays indexed by
*model* Gaussian id rather than dictionaries.  The streaming renderer binds
the frame-level statistics arrays of :class:`repro.core.pipeline.StreamingStats`
directly into the state, so kernels accumulate attribution in place and the
O(voxels x gaussians) dict copies of the old per-voxel diffing are gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class BlendState:
    """Per-pixel accumulators of (partial) alpha blending.

    ``max_depth`` tracks, per pixel, the largest camera-space depth among
    the Gaussians that have already contributed to that pixel.  The
    streaming pipeline uses it to count depth-order violations (the ``T_i``
    indicator of the cross-boundary penalty, Eq. 2) at per-pixel
    granularity, and ``gaussian_weights`` / ``gaussian_violation_weights``
    attribute the blended weight (and the out-of-order part of it) to the
    individual Gaussians so the boundary-aware fine-tuning can target the
    actual offenders.
    """

    color: np.ndarray          # (P, 3) accumulated premultiplied colour
    transmittance: np.ndarray  # (P,) remaining transmittance
    max_depth: np.ndarray      # (P,) largest depth blended so far
    blended_fragments: int = 0
    depth_violations: int = 0
    #: (G,) blended weight per Gaussian id; allocated lazily when depth-order
    #: tracking is requested, or bound to an external (frame-level) array.
    gaussian_weights: Optional[np.ndarray] = None
    #: (G,) out-of-order blended weight per Gaussian id.
    gaussian_violation_weights: Optional[np.ndarray] = None
    #: True when the weight arrays alias external storage; they must then
    #: never be reallocated, or the owner would stop seeing contributions.
    weights_bound: bool = False

    @classmethod
    def fresh(cls, num_pixels: int, num_gaussians: Optional[int] = None) -> "BlendState":
        state = cls(
            color=np.zeros((num_pixels, 3), dtype=np.float64),
            transmittance=np.ones(num_pixels, dtype=np.float64),
            max_depth=np.full(num_pixels, -np.inf, dtype=np.float64),
        )
        if num_gaussians is not None:
            state.ensure_weight_arrays(num_gaussians)
        return state

    def bind_weight_arrays(
        self, weights: np.ndarray, violation_weights: np.ndarray
    ) -> None:
        """Share external accumulator arrays (e.g. frame-level statistics).

        Kernels add per-Gaussian weight attribution in place, so the owner of
        the arrays sees every contribution without any copying.
        """
        self.gaussian_weights = weights
        self.gaussian_violation_weights = violation_weights
        self.weights_bound = True

    def ensure_weight_arrays(self, num_gaussians: int) -> None:
        """Allocate (or grow) the per-Gaussian weight accumulators.

        Raises
        ------
        ValueError
            When bound external arrays would have to grow — reallocating
            them would silently sever the aliasing, so the owner must
            provide arrays large enough up front.
        """
        if self.gaussian_weights is None:
            self.gaussian_weights = np.zeros(num_gaussians, dtype=np.float64)
            self.gaussian_violation_weights = np.zeros(num_gaussians, dtype=np.float64)
            return
        if len(self.gaussian_weights) < num_gaussians:
            if self.weights_bound:
                raise ValueError(
                    f"bound weight arrays of size {len(self.gaussian_weights)} "
                    f"cannot be grown to {num_gaussians}; bind larger arrays"
                )
            grown = np.zeros(num_gaussians, dtype=np.float64)
            grown[: len(self.gaussian_weights)] = self.gaussian_weights
            self.gaussian_weights = grown
            grown_v = np.zeros(num_gaussians, dtype=np.float64)
            grown_v[: len(self.gaussian_violation_weights)] = self.gaussian_violation_weights
            self.gaussian_violation_weights = grown_v
