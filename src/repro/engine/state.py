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
A :class:`WeightLog` bound in their place records the additions instead,
to be made on the frame's arrays later in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np


class WeightLog:
    """Per-Gaussian weight additions recorded in order instead of made.

    The blend kernels take a log wherever they take a weight array
    (:func:`add_weights`).  :meth:`replay` then makes the additions on an
    array in the order they were recorded, which leaves it bit for bit as
    making them there would have: a tile worker renders its run into logs,
    and the calling process replays them after its own run, so the frame's
    weights equal a one-process frame's.  Additions of ``0.0`` are dropped;
    they change no weight (weights are sums of non-negative terms).
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._ids: List[np.ndarray] = []
        self._sums: List[np.ndarray] = []

    def __len__(self) -> int:
        return self.size

    def add(self, ids, sums) -> None:
        sums = np.atleast_1d(np.asarray(sums, dtype=np.float64))
        kept = sums != 0.0
        self._ids.append(np.atleast_1d(np.asarray(ids, dtype=np.int64))[kept])
        self._sums.append(sums[kept])

    def replay(self, target: np.ndarray) -> None:
        """Make the recorded additions on ``target``, in order."""
        if self._ids:
            np.add.at(target, np.concatenate(self._ids), np.concatenate(self._sums))

    def __getstate__(self) -> dict:
        # One pair of arrays travels, not one pair per recorded block.
        ids = np.concatenate(self._ids) if self._ids else np.zeros(0, dtype=np.int64)
        sums = np.concatenate(self._sums) if self._sums else np.zeros(0)
        return {"size": self.size, "_ids": [ids], "_sums": [sums]}


def add_weights(target: Union[np.ndarray, WeightLog], ids, sums) -> None:
    """``np.add.at(target, ids, sums)``, or recorded when ``target`` is a log.

    ``ids`` is an array of Gaussian ids (repeats add up in order) or one id.
    """
    if isinstance(target, WeightLog):
        target.add(ids, sums)
    elif isinstance(ids, (int, np.integer)):
        target[ids] += sums
    else:
        np.add.at(target, ids, sums)


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
