"""Per-pixel blending state and per-Gaussian weight targets.

:class:`BlendState` is the resumable per-pixel accumulator of the reference
blending loop (:func:`~repro.engine.kernels.blend_reference`): the
tile-centric rasterizer's reference path blends one tile's full sorted list
into a fresh state, while the streaming pipeline's reference loop resumes
the same state voxel by voxel (the partial pixel values that stay on-chip
in Fig. 1b).

Per-Gaussian weight attribution is not part of the state.  Both blend
kernels add it into the arrays their caller passes, dense and indexed by
*model* Gaussian id: the streaming renderer passes the frame-level arrays
of :class:`repro.core.pipeline.StreamingStats`, so attribution accumulates
in place.  A :class:`WeightLog` passed in their place records the additions
instead, to be made on the frame's arrays later in the same order.
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


#: Where the blend kernels add per-Gaussian weights: an array indexed by
#: model Gaussian id, or a log that records the additions.
WeightTarget = Union[np.ndarray, WeightLog]


def add_weights(target: Optional[WeightTarget], ids, sums) -> None:
    """``np.add.at(target, ids, sums)``, or recorded when ``target`` is a log.

    ``ids`` is an array of Gaussian ids (repeats add up in order) or one id.
    A ``None`` target is untracked: nothing is added.
    """
    if target is None:
        return
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
    the Gaussians that have already contributed to that pixel.  When the
    blend tracks depth order (``model_indices`` given), it counts the
    contributions that arrive behind that depth in ``depth_violations``
    (the ``T_i`` indicator of the cross-boundary penalty, Eq. 2, at
    per-pixel granularity).
    """

    color: np.ndarray          # (P, 3) accumulated premultiplied colour
    transmittance: np.ndarray  # (P,) remaining transmittance
    max_depth: np.ndarray      # (P,) largest depth blended so far
    blended_fragments: int = 0
    depth_violations: int = 0

    @classmethod
    def fresh(cls, num_pixels: int) -> "BlendState":
        return cls(
            color=np.zeros((num_pixels, 3), dtype=np.float64),
            transmittance=np.ones(num_pixels, dtype=np.float64),
            max_depth=np.full(num_pixels, -np.inf, dtype=np.float64),
        )
