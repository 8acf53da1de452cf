"""Image-quality metrics used by the evaluation (MSE, PSNR).

The paper reports PSNR only (Table II, Fig. 7, Fig. 12).  There is no SSIM:
the fine-tuning stages step analytically without a photometric loss, so
nothing here needs the D-SSIM term of the 3DGS training loss.
"""

from __future__ import annotations

import numpy as np


def mse(image_a: np.ndarray, image_b: np.ndarray) -> float:
    """Mean squared error between two images (any matching shape)."""
    image_a = np.asarray(image_a, dtype=np.float64)
    image_b = np.asarray(image_b, dtype=np.float64)
    if image_a.shape != image_b.shape:
        raise ValueError(f"shape mismatch: {image_a.shape} vs {image_b.shape}")
    return float(np.mean((image_a - image_b) ** 2))


def psnr(image_a: np.ndarray, image_b: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB.

    Returns ``inf`` for identical images (zero MSE).
    """
    err = mse(image_a, image_b)
    if err <= 0.0:
        return float("inf")
    return float(10.0 * np.log10((data_range ** 2) / err))
