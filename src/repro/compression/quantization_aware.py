"""Quantization-aware fine-tuning (Sec. III-C / Sec. V-A).

After the codebooks are trained, the paper runs 5 000 iterations of
quantization-aware fine-tuning so the quantised indices "capture feature
variations without loss of detail".  Without autograd we realise the same
mechanism as an alternating optimisation:

1. *Codebook refinement* — re-fit each codebook centroid to the mean of its
   assigned feature vectors (one Lloyd step on the live parameters).
2. *Parameter nudging* — move each Gaussian's second-half features a small
   step towards their assigned centroid, exactly what straight-through
   gradient training converges to when the rendering loss is locally flat.

Both steps monotonically reduce the quantization error, and the rendered
PSNR of the de-quantised model recovers accordingly (the behaviour the paper
relies on).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.compression.vq import VectorQuantizer
from repro.gaussians.camera import Camera
from repro.gaussians.metrics import psnr
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import TileRasterizer


@dataclass
class QATResult:
    """Outcome of quantization-aware fine-tuning."""

    model: GaussianModel                 # fine-tuned (un-quantised) model
    quantizer: VectorQuantizer           # refined copy of the input's codebooks
    quantized_model: GaussianModel       # decode(encode(model)) after QAT
    psnr_before: float
    psnr_after: float
    quantization_error_history: List[float] = field(default_factory=list)
    psnr_history: List[float] = field(default_factory=list)


def _nudge_towards(values: np.ndarray, targets: np.ndarray, step: float) -> np.ndarray:
    """Move ``values`` (as float64) a fraction ``step`` of the way to ``targets``."""
    values = values.astype(np.float64)
    return values + step * (targets - values)


def quantization_aware_finetune(
    model: GaussianModel,
    quantizer: VectorQuantizer,
    iterations: int = 5,
    nudge_step: float = 0.3,
    camera: Optional[Camera] = None,
    ground_truth: Optional[np.ndarray] = None,
    rasterizer: Optional[TileRasterizer] = None,
    track_psnr_every: int = 0,
) -> QATResult:
    """Alternating codebook/parameter refinement.

    Parameters
    ----------
    model:
        The trained (optionally boundary-fine-tuned) model.
    quantizer:
        A fitted :class:`VectorQuantizer`.  Its codebooks stay as they are:
        the rounds refine a deep copy, returned as :attr:`QATResult.quantizer`.
    iterations:
        Number of alternating refinement rounds (each round stands in for a
        block of the paper's 5 000 gradient iterations).
    nudge_step:
        Fraction of the distance to the assigned centroid the parameters move
        per round.
    camera, ground_truth, rasterizer:
        If provided, rendered PSNR of the de-quantised model is tracked.
    track_psnr_every:
        Track PSNR every this many rounds (0 = only before/after).
    """
    if not quantizer.is_fitted:
        raise RuntimeError("quantizer must be fitted before QAT")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    work = model.copy()
    quantizer = copy.deepcopy(quantizer)
    rasterizer = rasterizer or TileRasterizer()

    def _render_psnr(m: GaussianModel) -> float:
        if camera is None or ground_truth is None:
            return float("nan")
        image = rasterizer.render(quantizer.roundtrip(m), camera).image
        return psnr(ground_truth, image)

    psnr_before = _render_psnr(work)
    error_history: List[float] = []
    psnr_history: List[float] = []

    for round_index in range(iterations):
        quantized = quantizer.encode(work)
        decoded = quantizer.decode(quantized, work)

        # Step 1: refine codebooks on the current parameters (one Lloyd step).
        groups = {
            "scale": work.scales.astype(np.float64),
            "rotation": work.rotations.astype(np.float64),
            "dc": work.sh_dc.astype(np.float64),
            "sh": work.sh_rest.reshape(len(work), -1).astype(np.float64),
        }
        for name, codebook in quantizer.codebooks.items():
            assignments = quantized.indices[name]
            vectors = groups[name]
            for centroid_index in np.unique(assignments):
                members = vectors[assignments == centroid_index]
                if len(members) > 0:
                    codebook.centroids[centroid_index] = members.mean(axis=0)

        # Step 2: nudge parameters towards their (refined) centroids; the
        # new model normalizes the nudged rotations.
        work = replace(
            work,
            scales=np.clip(
                _nudge_towards(work.scales, decoded.scales, nudge_step), 1e-6, None
            ),
            rotations=_nudge_towards(work.rotations, decoded.rotations, nudge_step),
            sh_dc=_nudge_towards(work.sh_dc, decoded.sh_dc, nudge_step),
            sh_rest=_nudge_towards(work.sh_rest, decoded.sh_rest, nudge_step),
        )

        # Track quantization error after this round.
        round_error = 0.0
        quantized_after = quantizer.encode(work)
        decoded_after = quantizer.decode(quantized_after, work)
        round_error += float(np.mean((decoded_after.scales - work.scales) ** 2))
        round_error += float(np.mean((decoded_after.rotations - work.rotations) ** 2))
        round_error += float(np.mean((decoded_after.sh_dc - work.sh_dc) ** 2))
        round_error += float(np.mean((decoded_after.sh_rest - work.sh_rest) ** 2))
        error_history.append(round_error)
        if track_psnr_every and (round_index + 1) % track_psnr_every == 0:
            psnr_history.append(_render_psnr(work))

    psnr_after = _render_psnr(work)
    return QATResult(
        model=work,
        quantizer=quantizer,
        quantized_model=quantizer.roundtrip(work),
        psnr_before=psnr_before,
        psnr_after=psnr_after,
        quantization_error_history=error_history,
        psnr_history=psnr_history,
    )
