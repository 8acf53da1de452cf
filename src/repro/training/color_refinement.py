"""Analytic photometric refinement of DC colours.

The rendered image is *linear* in the Gaussian colours once the blending
weights are fixed: ``I(x) = sum_i w_i(x) * c_i + T(x) * background``.  That
makes the colour sub-problem of the photometric loss a linear least squares
we can solve without autograd: for each Gaussian, a damped Jacobi step

``delta_c_i = -damping * sum_x w_i(x) * r(x) / sum_x w_i(x)``

with ``r = rendered - target`` moves every Gaussian's colour towards the
weighted-average residual it is responsible for; with a modest damping the
simultaneous update over all (overlapping) Gaussians reduces the L2 error
across epochs.  The boundary-aware fine-tuning uses this as the stand-in
for the ``L_origin`` term: while the cross-boundary penalty shrinks the
offending Gaussians, the colour refinement re-absorbs the lost radiance
into the surrounding Gaussians, which is how rendering quality recovers
during fine-tuning (Fig. 7).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.projection import project_gaussians
from repro.gaussians.rasterizer import ALPHA_EPSILON, ALPHA_MAX, TRANSMITTANCE_EPSILON
from repro.gaussians.sh import SH_C0
from repro.gaussians.sorting import sort_tile_gaussians
from repro.gaussians.tiles import TileGrid, bin_gaussians_to_tiles


def accumulate_color_statistics(
    model: GaussianModel,
    camera: Camera,
    target_image: np.ndarray,
    sh_degree: int = 3,
    tile_size: int = 16,
    background: Sequence[float] = (0.0, 0.0, 0.0),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-Gaussian blending statistics against a target image.

    Returns
    -------
    (weight_residual, weight_total, rendered):
        ``(N, 3)`` sums of ``w_i(x) * (I(x) - target(x))``, ``(N,)`` sums of
        ``w_i(x)`` and the rendered image itself.
    """
    target_image = np.asarray(target_image, dtype=np.float64)
    if target_image.shape != (camera.height, camera.width, 3):
        raise ValueError(
            f"target image shape {target_image.shape} does not match camera "
            f"({camera.height}, {camera.width}, 3)"
        )
    background = np.asarray(background, dtype=np.float64).reshape(3)
    grid = TileGrid(camera.width, camera.height, tile_size)
    projected = project_gaussians(model, camera, sh_degree=sh_degree)
    binning = bin_gaussians_to_tiles(projected, grid)
    sorted_lists = sort_tile_gaussians(projected, binning)

    n = len(model)
    weight_residual = np.zeros((n, 3), dtype=np.float64)
    weight_total = np.zeros(n, dtype=np.float64)
    rendered = np.zeros((camera.height, camera.width, 3), dtype=np.float64)

    for tile_id, indices in sorted_lists.items():
        if len(indices) == 0:
            continue
        xs, ys = grid.tile_pixel_centers(tile_id)
        px = xs.astype(np.float64) + 0.5
        py = ys.astype(np.float64) + 0.5
        num_pixels = len(xs)
        transmittance = np.ones(num_pixels, dtype=np.float64)
        color = np.zeros((num_pixels, 3), dtype=np.float64)
        weights_per_gaussian: List[Tuple[int, np.ndarray]] = []
        for gid in indices:
            if not projected.valid[gid]:
                continue
            active = transmittance > TRANSMITTANCE_EPSILON
            if not np.any(active):
                break
            dx = px - projected.means2d[gid, 0]
            dy = py - projected.means2d[gid, 1]
            a, b, c = projected.conics[gid]
            power = -0.5 * (a * dx * dx + c * dy * dy) - b * dx * dy
            alpha = projected.opacities[gid] * np.exp(np.minimum(power, 0.0))
            alpha = np.minimum(alpha, ALPHA_MAX)
            contributes = active & (alpha > ALPHA_EPSILON) & (power <= 0.0)
            if not np.any(contributes):
                continue
            weight = np.where(contributes, alpha * transmittance, 0.0)
            color += weight[:, None] * projected.colors[gid][None, :]
            transmittance = np.where(
                contributes, transmittance * (1.0 - alpha), transmittance
            )
            weights_per_gaussian.append((int(gid), weight))

        final = color + transmittance[:, None] * background[None, :]
        x0, y0, x1, y1 = grid.tile_pixel_bounds(tile_id)
        h, w = y1 - y0, x1 - x0
        rendered[y0:y1, x0:x1] = final.reshape(h, w, 3)

        residual = final - target_image[y0:y1, x0:x1].reshape(-1, 3)
        for gid, weight in weights_per_gaussian:
            weight_residual[gid] += (weight[:, None] * residual).sum(axis=0)
            weight_total[gid] += float(np.sum(weight))

    return weight_residual, weight_total, rendered


#: Largest per-step colour change (keeps simultaneous updates stable).
MAX_COLOR_STEP = 0.15


def dc_color_refinement_step(
    model: GaussianModel,
    cameras: Sequence[Camera],
    target_images: Sequence[np.ndarray],
    damping: float = 0.3,
    sh_degree: int = 3,
    tile_size: int = 16,
    background: Sequence[float] = (0.0, 0.0, 0.0),
) -> GaussianModel:
    """One damped refinement step on the DC colours against target images.

    Parameters
    ----------
    model:
        The model to refine (not modified; a refined copy is returned).
    cameras / target_images:
        Matched training views.  Statistics are accumulated over all of
        them before the single colour update, so multi-view consistency is
        preserved.
    damping:
        Fraction of the per-Gaussian weighted-mean-residual step applied.
        Small values (0.2-0.4) keep the simultaneous update of overlapping
        Gaussians stable; the loop applies one step per probe epoch.
    sh_degree, tile_size, background:
        Rendering parameters (match the evaluation configuration).
    """
    if len(cameras) != len(target_images):
        raise ValueError("cameras and target_images must have the same length")
    if not cameras:
        raise ValueError("at least one training view is required")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")

    n = len(model)
    weight_residual = np.zeros((n, 3), dtype=np.float64)
    weight_total = np.zeros(n, dtype=np.float64)
    for camera, target in zip(cameras, target_images):
        wr, wt, _ = accumulate_color_statistics(
            model,
            camera,
            target,
            sh_degree=sh_degree,
            tile_size=tile_size,
            background=background,
        )
        weight_residual += wr
        weight_total += wt

    touched = weight_total > 1e-9
    delta_color = np.zeros((n, 3), dtype=np.float64)
    delta_color[touched] = (
        -damping * weight_residual[touched] / weight_total[touched, None]
    )
    delta_color = np.clip(delta_color, -MAX_COLOR_STEP, MAX_COLOR_STEP)
    # d(colour)/d(sh_dc) = SH_C0, so the colour step maps onto sh_dc divided
    # by SH_C0.
    return replace(model, sh_dc=model.sh_dc.astype(np.float64) + delta_color / SH_C0)
