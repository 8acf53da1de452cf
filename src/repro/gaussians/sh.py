"""Real spherical harmonics used for view-dependent Gaussian colour.

3DGS stores appearance as SH coefficients up to degree 3 (16 basis
functions per colour channel: 1 DC + 15 higher order).  The constants below
are the standard real SH normalisation constants used by the original 3DGS
implementation.
"""

from __future__ import annotations

import numpy as np

# Degree-0
SH_C0 = 0.28209479177387814
# Degree-1
SH_C1 = 0.4886025119029199
# Degree-2
SH_C2 = (
    1.0925484305920792,
    -1.0925484305920792,
    0.31539156525252005,
    -1.0925484305920792,
    0.5462742152960396,
)
# Degree-3
SH_C3 = (
    -0.5900435899266435,
    2.890611442640554,
    -0.4570457994644658,
    0.3731763325901154,
    -0.4570457994644658,
    1.445305721320277,
    -0.5900435899266435,
)


def num_sh_coeffs(degree: int) -> int:
    """Number of SH basis functions for ``degree`` (0..3)."""
    if degree < 0 or degree > 3:
        raise ValueError(f"SH degree must be in [0, 3], got {degree}")
    return (degree + 1) ** 2


def sh_basis(directions: np.ndarray, degree: int = 3) -> np.ndarray:
    """Evaluate the real SH basis for unit ``directions``.

    Parameters
    ----------
    directions:
        ``(N, 3)`` unit view directions.
    degree:
        Maximum SH degree (0..3).

    Returns
    -------
    ``(N, (degree+1)**2)`` basis values.
    """
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim == 1:
        directions = directions[None, :]
    n = directions.shape[0]
    count = num_sh_coeffs(degree)
    basis = np.empty((n, count), dtype=np.float64)
    basis[:, 0] = SH_C0
    if degree == 0:
        return basis
    x, y, z = directions[:, 0], directions[:, 1], directions[:, 2]
    basis[:, 1] = -SH_C1 * y
    basis[:, 2] = SH_C1 * z
    basis[:, 3] = -SH_C1 * x
    if degree == 1:
        return basis
    xx, yy, zz = x * x, y * y, z * z
    xy, yz, xz = x * y, y * z, x * z
    basis[:, 4] = SH_C2[0] * xy
    basis[:, 5] = SH_C2[1] * yz
    basis[:, 6] = SH_C2[2] * (2.0 * zz - xx - yy)
    basis[:, 7] = SH_C2[3] * xz
    basis[:, 8] = SH_C2[4] * (xx - yy)
    if degree == 2:
        return basis
    basis[:, 9] = SH_C3[0] * y * (3.0 * xx - yy)
    basis[:, 10] = SH_C3[1] * xy * z
    basis[:, 11] = SH_C3[2] * y * (4.0 * zz - xx - yy)
    basis[:, 12] = SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy)
    basis[:, 13] = SH_C3[4] * x * (4.0 * zz - xx - yy)
    basis[:, 14] = SH_C3[5] * z * (xx - yy)
    basis[:, 15] = SH_C3[6] * x * (xx - 3.0 * yy)
    return basis


def eval_sh(
    sh_dc: np.ndarray,
    sh_rest: np.ndarray,
    directions: np.ndarray,
    degree: int = 3,
) -> np.ndarray:
    """Evaluate view-dependent RGB colour from SH coefficients.

    Follows the 3DGS convention: the result is offset by ``+0.5`` and
    clamped at zero so fully-zero coefficients yield mid-grey.

    Parameters
    ----------
    sh_dc:
        ``(N, 3)`` DC coefficients.
    sh_rest:
        ``(N, 15, 3)`` higher-order coefficients (degrees 1..3).
    directions:
        ``(N, 3)`` unit view directions (Gaussian centre minus camera).
    degree:
        Maximum degree actually evaluated (0..3).  Lower degrees ignore the
        trailing ``sh_rest`` coefficients, which is how LightGaussian's SH
        distillation reduces bandwidth.

    Returns
    -------
    ``(N, 3)`` RGB colours clamped to ``[0, +inf)``.
    """
    sh_dc = np.asarray(sh_dc, dtype=np.float64)
    sh_rest = np.asarray(sh_rest, dtype=np.float64)
    basis = sh_basis(directions, degree=degree)
    colour = basis[:, 0:1] * sh_dc
    if degree > 0:
        n_rest = num_sh_coeffs(degree) - 1
        # basis columns 1..n_rest align with sh_rest coefficients 0..n_rest-1.
        colour = colour + np.einsum(
            "nk,nkc->nc", basis[:, 1 : 1 + n_rest], sh_rest[:, :n_rest, :]
        )
    colour = colour + 0.5
    return np.clip(colour, 0.0, None)


def rgb_to_sh_dc(rgb: np.ndarray) -> np.ndarray:
    """Convert target RGB in ``[0, 1]`` to DC SH coefficients."""
    rgb = np.asarray(rgb, dtype=np.float64)
    return (rgb - 0.5) / SH_C0
