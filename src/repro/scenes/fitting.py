"""Calibrated "trained model" construction.

The paper evaluates trained 3DGS checkpoints against ground-truth
photographs.  We do not have either, so the quality experiments are built
from two models:

* the **reference model** — the procedural Gaussian cloud, whose renders
  serve as the ground-truth images;
* the **trained model** — a perturbed copy of the reference whose
  tile-centric render reaches a target PSNR against the ground truth.  The
  perturbation level is calibrated so each (scene, base algorithm) pair
  lands at the PSNR the paper reports in Table II.

The streaming pipeline is then evaluated on the *same* trained model, so
the quantity Table II actually compares — "Ours" versus the original
pipeline on identical parameters — is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.metrics import psnr
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RenderOutput, TileRasterizer


@dataclass
class FittedScene:
    """A reference model, its calibrated trained model and ground-truth image.

    ``trained_output`` is the calibration render of ``trained`` (the one
    ``achieved_psnr`` measures), so callers that need the trained model's
    tile-centric render through the same rasterizer and camera reuse it
    instead of rendering it again.
    """

    reference: GaussianModel
    trained: GaussianModel
    ground_truth: np.ndarray
    camera: Camera
    achieved_psnr: float
    target_psnr: float
    noise_scale: float
    trained_output: RenderOutput


def perturb_model(
    model: GaussianModel, noise_scale: float, seed: int = 0
) -> GaussianModel:
    """A perturbed copy of ``model`` emulating imperfect training convergence.

    ``noise_scale`` of 0 returns an exact copy; larger values add jitter to
    colour, opacity, scale and (slightly) position, which lowers the render
    PSNR monotonically.
    """
    if noise_scale < 0:
        raise ValueError("noise_scale must be non-negative")
    if noise_scale == 0.0:
        return model.copy()
    rng = np.random.default_rng(seed)
    n = len(model)
    sh_dc = model.sh_dc + rng.normal(0.0, noise_scale, size=(n, 3))
    sh_rest = model.sh_rest + rng.normal(
        0.0, 0.3 * noise_scale, size=model.sh_rest.shape
    )
    opacities = np.clip(
        model.opacities + rng.normal(0.0, 0.3 * noise_scale, size=n), 0.02, 0.99
    )
    scales = np.clip(
        model.scales * np.exp(rng.normal(0.0, 0.2 * noise_scale, size=(n, 3))),
        1e-5,
        None,
    ).astype(np.float32)
    position_jitter = 0.1 * noise_scale * scales.mean()
    return replace(
        model,
        positions=model.positions + rng.normal(0.0, position_jitter, size=(n, 3)),
        scales=scales,
        opacities=opacities,
        sh_dc=sh_dc,
        sh_rest=sh_rest,
    )


def fit_trained_model(
    reference: GaussianModel,
    camera: Camera,
    target_psnr: float,
    rasterizer: Optional[TileRasterizer] = None,
    initial_noise: float = 0.05,
    max_iterations: int = 6,
    tolerance_db: float = 0.35,
    seed: int = 0,
) -> FittedScene:
    """Calibrate a perturbed model whose render PSNR matches ``target_psnr``.

    A secant-style search on the noise scale: PSNR decreases monotonically
    with noise, and MSE is approximately quadratic in the noise scale, so
    each update rescales the noise by ``10**((measured - target) / 20)``.

    Returns the candidate whose PSNR came closest to the target, with its
    render (:attr:`FittedScene.trained_output`).

    Parameters
    ----------
    reference:
        The procedural ground-truth model.
    camera:
        The evaluation camera used for calibration.
    target_psnr:
        Desired tile-centric PSNR (dB) of the trained model's render against
        the reference render.
    rasterizer:
        Renderer to use (a default black-background rasterizer otherwise).
    initial_noise:
        Starting noise scale.
    max_iterations:
        Maximum number of calibration renders.
    tolerance_db:
        Stop once the achieved PSNR is within this many dB of the target.
    seed:
        Seed controlling the perturbation noise.
    """
    if rasterizer is None:
        rasterizer = TileRasterizer()
    ground_truth = rasterizer.render(reference, camera).image

    noise = float(initial_noise)
    best: Optional[FittedScene] = None
    for _ in range(max_iterations):
        trained = perturb_model(reference, noise, seed=seed)
        rendered = rasterizer.render(trained, camera)
        achieved = psnr(ground_truth, rendered.image)
        candidate = FittedScene(
            reference=reference,
            trained=trained,
            ground_truth=ground_truth,
            camera=camera,
            achieved_psnr=achieved,
            target_psnr=target_psnr,
            noise_scale=noise,
            trained_output=rendered,
        )
        if best is None or abs(achieved - target_psnr) < abs(
            best.achieved_psnr - target_psnr
        ):
            best = candidate
        if abs(achieved - target_psnr) <= tolerance_db:
            break
        if not np.isfinite(achieved):
            # Zero error (identical render): increase noise and retry.
            noise = max(noise, 1e-3) * 4.0
            continue
        # MSE ~ noise^2  =>  PSNR ~ -20 log10(noise) + const.
        noise = noise * 10.0 ** ((achieved - target_psnr) / 20.0)
        noise = float(np.clip(noise, 1e-5, 3.0))
    assert best is not None
    return best
