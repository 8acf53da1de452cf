"""Boundary-aware fine-tuning (Sec. III-B, Fig. 6/7).

The goal of this stage is to make voxel-by-voxel rendering depth-correct:
Gaussians whose footprint spans a voxel boundary can be blended out of
order, so the fine-tuning shrinks them until (almost) none is rendered out
of order, while keeping image quality.

Without autograd the update per iteration is:

* an **analytic gradient step on the cross-boundary penalty** — the scale of
  every flagged Gaussian is reduced multiplicatively (the direction of
  ``d L_CBP / d S_i``), concentrated on the axis realising the maximum
  scale;
* an **opacity compensation** step standing in for the photometric term —
  shrinking a splat reduces its integrated contribution, so opacity is
  boosted by a bounded fraction of the lost area;
* a **trust region** bounding how far any Gaussian may drift from its
  pre-fine-tuning parameters, which is what keeps the tile-centric
  rendering quality from collapsing (the role ``L_origin`` plays in the
  paper).

The set of flagged Gaussians (the indicator ``T_i`` of Eq. 2) is obtained
from an *error probe*: a periodic streaming render that attributes
out-of-order blend weight to individual Gaussians
(:meth:`repro.core.pipeline.StreamingStats.error_gaussian_indices`).  When
no probe is supplied the geometric cross-boundary test is used instead,
which is the conservative superset of the render-order test.

Positions are never modified, matching the paper ("we keep each Gaussian
position fixed to retain the scene geometry").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.voxel_grid import cross_boundary_mask
from repro.gaussians.model import GaussianModel
from repro.training.losses import DEFAULT_BETA, cross_boundary_penalty

#: Largest total shrink allowed per flagged Gaussian (trust region on scale).
MAX_TOTAL_SHRINK = 0.7

#: Largest opacity boost allowed (trust region on opacity).
MAX_OPACITY_BOOST = 1.5

#: An error probe returns (flagged model indices, quality metric, error ratio).
ErrorProbe = Callable[[GaussianModel], Tuple[np.ndarray, float, float]]


@dataclass
class BoundaryFinetuneResult:
    """Fine-tuned model plus per-probe history (the data behind Fig. 7)."""

    model: GaussianModel
    iterations: List[int] = field(default_factory=list)
    error_gaussian_ratio: List[float] = field(default_factory=list)
    cross_boundary_ratio: List[float] = field(default_factory=list)
    penalty: List[float] = field(default_factory=list)
    quality: List[float] = field(default_factory=list)

    @property
    def initial_error_ratio(self) -> float:
        return self.error_gaussian_ratio[0] if self.error_gaussian_ratio else 0.0

    @property
    def final_error_ratio(self) -> float:
        return self.error_gaussian_ratio[-1] if self.error_gaussian_ratio else 0.0


def geometric_probe(voxel_size: float) -> ErrorProbe:
    """An error probe that flags every cross-boundary Gaussian.

    Cheap (no rendering) and conservative; used by unit tests and as the
    fallback when no streaming probe is available.
    """

    def probe(model: GaussianModel) -> Tuple[np.ndarray, float, float]:
        mask = cross_boundary_mask(model, voxel_size)
        ratio = float(np.mean(mask)) if len(mask) else 0.0
        return np.flatnonzero(mask), float("nan"), ratio

    return probe


def boundary_aware_finetune(
    model: GaussianModel,
    voxel_size: float,
    iterations: int = 3000,
    beta: float = DEFAULT_BETA,
    learning_rate: float = 0.02,
    error_probe: Optional[ErrorProbe] = None,
    probe_every: int = 500,
    photometric_refiner: Optional[Callable[[GaussianModel], GaussianModel]] = None,
) -> BoundaryFinetuneResult:
    """Run the boundary-aware fine-tuning loop.

    Parameters
    ----------
    model:
        The trained model (not modified; a fine-tuned copy is returned).
    voxel_size:
        Voxel edge length of the streaming configuration.
    iterations:
        Number of fine-tuning iterations (the paper uses 3 000).
    beta:
        Weight of the cross-boundary penalty (paper: 0.05).
    learning_rate:
        Step size of the multiplicative scale update; the per-iteration
        relative shrink of a flagged Gaussian is ``learning_rate * beta``
        (so the defaults shrink a persistently flagged Gaussian by ~45 %
        over the full 3 000 iterations, within the trust region).
    error_probe:
        Callable returning ``(flagged indices, quality, error ratio)`` for a
        model — typically a reduced-resolution streaming render.  Defaults
        to the geometric cross-boundary probe.
    probe_every:
        Number of iterations between probe evaluations (the flagged set is
        held fixed in between, like a mini-epoch).
    photometric_refiner:
        Optional callable applied at every probe epoch that re-optimises the
        photometric parameters (e.g. the analytic DC-colour refinement of
        :mod:`repro.training.color_refinement`).  This is the surrogate for
        the ``L_origin`` gradient: it re-absorbs the radiance removed by the
        shrinking Gaussians so image quality recovers during fine-tuning.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if probe_every <= 0:
        raise ValueError("probe_every must be positive")
    lo, _ = model.bounding_box()
    origin = lo.astype(np.float64) - 1e-4
    original_scales = model.scales.astype(np.float64)
    original_opacities = model.opacities.astype(np.float64)
    probe = error_probe or geometric_probe(voxel_size)
    # The loop updates these working arrays and builds a model from them
    # at every probe; rotations always come from ``model``, so every
    # probed model normalizes them the same way.
    scales = np.array(model.scales)
    opacities = np.array(model.opacities)
    sh_dc, sh_rest = model.sh_dc, model.sh_rest

    def current() -> GaussianModel:
        return replace(
            model, scales=scales, opacities=opacities, sh_dc=sh_dc, sh_rest=sh_rest
        )

    result = BoundaryFinetuneResult(model=current())
    shrink_per_iteration = learning_rate * beta

    def run_probe(iteration: int) -> np.ndarray:
        work = result.model
        flagged, quality, error_ratio = probe(work)
        crossing = cross_boundary_mask(work, voxel_size, origin=origin)
        result.iterations.append(iteration)
        result.error_gaussian_ratio.append(float(error_ratio))
        result.cross_boundary_ratio.append(
            float(np.mean(crossing)) if len(crossing) else 0.0
        )
        result.penalty.append(
            cross_boundary_penalty(work, voxel_size, origin=origin, indicator=crossing)
        )
        result.quality.append(float(quality))
        # Only Gaussians that both cross a boundary and are flagged by the
        # probe are actionable: shrinking a non-crossing Gaussian cannot fix
        # an ordering error, and a crossing Gaussian that never blends out of
        # order needs no change.
        flagged = np.asarray(flagged, dtype=np.int64)
        if len(flagged) == 0:
            return flagged
        actionable = flagged[crossing[flagged]]
        return actionable

    flagged = run_probe(0)
    for iteration in range(1, iterations + 1):
        if len(flagged) > 0:
            scales64 = scales.astype(np.float64)
            argmax_axis = np.argmax(scales64[flagged], axis=1)
            factors = np.full_like(scales64[flagged], 1.0 - 0.5 * shrink_per_iteration)
            factors[np.arange(len(flagged)), argmax_axis] = 1.0 - shrink_per_iteration

            new_scales = scales64[flagged] * factors
            floor = original_scales[flagged] * (1.0 - MAX_TOTAL_SHRINK)
            new_scales = np.maximum(new_scales, floor)
            area_ratio = np.prod(scales64[flagged], axis=1) / np.clip(
                np.prod(new_scales, axis=1), 1e-18, None
            )
            scales[flagged] = new_scales.astype(np.float32)

            # Bounded opacity compensation for the lost footprint.
            boost = np.clip(area_ratio ** (1.0 / 4.0), 1.0, None)
            new_opacity = opacities[flagged].astype(np.float64) * boost
            ceiling = np.minimum(original_opacities[flagged] * MAX_OPACITY_BOOST, 0.99)
            opacities[flagged] = np.minimum(new_opacity, ceiling).astype(np.float32)

        if iteration % probe_every == 0 or iteration == iterations:
            if photometric_refiner is not None:
                refined = photometric_refiner(current())
                sh_dc, sh_rest = refined.sh_dc, refined.sh_rest
                opacities = np.array(refined.opacities)
            result.model = current()
            flagged = run_probe(iteration)

    return result
