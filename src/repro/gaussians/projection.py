"""EWA splatting projection of 3D Gaussians onto the image plane.

This is the "Projection" stage of the 3DGS pipeline (Fig. 2): each Gaussian
ellipsoid is transformed to camera space, its 3D covariance is built from
scale and rotation, projected through the local affine (Jacobian)
approximation of the perspective projection, and the resulting 2D covariance
is inverted into a *conic* used by the rasterizer.  The stage also evaluates
view-dependent colour from the SH coefficients and the screen-space radius
used for tile binning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.sh import eval_sh

#: The rasterizer considers a Gaussian out to 3 standard deviations.
RADIUS_SIGMA_CUTOFF = 3.0

#: Small diagonal term added to the 2D covariance (anti-aliasing blur, as in
#: the reference 3DGS implementation).
COV2D_DILATION = 0.3


def quaternion_to_rotation_matrix(quaternions: np.ndarray) -> np.ndarray:
    """Convert ``(N, 4)`` quaternions ``(w, x, y, z)`` to ``(N, 3, 3)`` rotations."""
    q = np.asarray(quaternions, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    norms = np.where(norms < 1e-12, 1.0, norms)
    q = q / norms
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    rot = np.empty((len(q), 3, 3), dtype=np.float64)
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def build_covariance_3d(scales: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Build ``(N, 3, 3)`` world-space covariances ``R S S^T R^T``."""
    scales = np.asarray(scales, dtype=np.float64)
    rot = quaternion_to_rotation_matrix(rotations)
    # M = R @ diag(s); cov = M @ M^T
    m = rot * scales[:, None, :]
    return m @ np.transpose(m, (0, 2, 1))


@dataclass
class ProjectedGaussians:
    """Per-Gaussian screen-space quantities produced by the projection stage.

    All arrays have length ``N`` (the number of Gaussians in the input model)
    and are only meaningful where ``valid`` is True.
    """

    means2d: np.ndarray        # (N, 2) projected centres in pixels
    depths: np.ndarray         # (N,) camera-space depth
    conics: np.ndarray         # (N, 3) upper-triangular inverse 2D covariance (a, b, c)
    radii: np.ndarray          # (N,) screen-space radius in pixels
    colors: np.ndarray         # (N, 3) view-dependent RGB
    opacities: np.ndarray      # (N,) opacity
    valid: np.ndarray          # (N,) bool — in front of camera & non-degenerate

    def __len__(self) -> int:
        return int(self.means2d.shape[0])

    @property
    def num_valid(self) -> int:
        """Number of Gaussians that survive frustum/degeneracy culling."""
        return int(np.count_nonzero(self.valid))


def project_covariance_2d(
    cov3d: np.ndarray,
    means_cam: np.ndarray,
    camera: Camera,
) -> np.ndarray:
    """Project ``(N, 3, 3)`` camera-space covariances to ``(N, 2, 2)`` image space.

    Uses the local affine approximation ``cov2d = J cov3d J^T`` where ``J`` is
    the Jacobian of the perspective projection evaluated at each Gaussian's
    camera-space centre (clamped to the view frustum as in the reference
    implementation).
    """
    n = len(means_cam)
    tz = means_cam[:, 2]
    safe_tz = np.where(np.abs(tz) < 1e-9, 1e-9, tz)
    # Clamp x/z and y/z to stay within ~1.3x the frustum (numerical stability).
    tan_fovx = camera.width / (2.0 * camera.fx)
    tan_fovy = camera.height / (2.0 * camera.fy)
    lim_x = 1.3 * tan_fovx
    lim_y = 1.3 * tan_fovy
    tx = np.clip(means_cam[:, 0] / safe_tz, -lim_x, lim_x) * safe_tz
    ty = np.clip(means_cam[:, 1] / safe_tz, -lim_y, lim_y) * safe_tz

    jac = np.zeros((n, 2, 3), dtype=np.float64)
    jac[:, 0, 0] = camera.fx / safe_tz
    jac[:, 0, 2] = -camera.fx * tx / (safe_tz * safe_tz)
    jac[:, 1, 1] = camera.fy / safe_tz
    jac[:, 1, 2] = -camera.fy * ty / (safe_tz * safe_tz)
    cov2d = jac @ cov3d @ np.transpose(jac, (0, 2, 1))
    cov2d[:, 0, 0] += COV2D_DILATION
    cov2d[:, 1, 1] += COV2D_DILATION
    return cov2d


def project_gaussians(
    model: GaussianModel,
    camera: Camera,
    sh_degree: int = 3,
    indices: Optional[np.ndarray] = None,
) -> ProjectedGaussians:
    """Run the full projection stage for ``model`` under ``camera``.

    Parameters
    ----------
    model:
        The Gaussian scene.
    camera:
        The viewing camera.
    sh_degree:
        Maximum SH degree used for view-dependent colour.
    indices:
        Optional subset of Gaussian indices to project (used by the
        streaming pipeline, which projects one voxel's worth at a time).

    Returns
    -------
    :class:`ProjectedGaussians` with one row per projected Gaussian (in the
    order of ``indices`` if given, otherwise model order).
    """
    if indices is not None:
        sub = model.subset(indices)
    else:
        sub = model
    n = len(sub)
    if n == 0:
        empty2 = np.zeros((0, 2))
        empty1 = np.zeros((0,))
        return ProjectedGaussians(
            means2d=empty2,
            depths=empty1,
            conics=np.zeros((0, 3)),
            radii=empty1,
            colors=np.zeros((0, 3)),
            opacities=empty1,
            valid=np.zeros((0,), dtype=bool),
        )

    means_cam = camera.world_to_camera(sub.positions)
    depths = means_cam[:, 2]
    in_front = depths > camera.near

    means2d, _ = camera.project(sub.positions)

    cov3d_world = build_covariance_3d(sub.scales, sub.rotations)
    # Rotate covariance into camera space: W cov W^T with W the view rotation.
    w = camera.rotation
    cov3d_cam = np.einsum("ij,njk,lk->nil", w, cov3d_world, w)
    cov2d = project_covariance_2d(cov3d_cam, means_cam, camera)

    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = a * c - b * b
    non_degenerate = det > 1e-12
    safe_det = np.where(non_degenerate, det, 1.0)
    conics = np.stack([c / safe_det, -b / safe_det, a / safe_det], axis=1)

    # Screen-space radius: 3 sigma of the major eigenvalue of cov2d.
    mid = 0.5 * (a + c)
    disc = np.sqrt(np.clip(mid * mid - det, 0.0, None))
    lambda1 = mid + disc
    radii = np.ceil(RADIUS_SIGMA_CUTOFF * np.sqrt(np.clip(lambda1, 0.0, None)))

    view_dirs = camera.view_directions(sub.positions)
    colors = eval_sh(sub.sh_dc, sub.sh_rest, view_dirs, degree=sh_degree)

    valid = in_front & non_degenerate & (radii > 0)

    return ProjectedGaussians(
        means2d=means2d,
        depths=depths,
        conics=conics,
        radii=radii.astype(np.float64),
        colors=colors,
        opacities=sub.opacities.astype(np.float64),
        valid=valid,
    )


def coarse_project_centers(
    positions: np.ndarray,
    max_scales: np.ndarray,
    camera: Camera,
) -> tuple:
    """Lightweight projection used by the coarse-grained filter (Sec. III-B).

    Only the Gaussian centre and its maximum scale are used: the centre is
    projected exactly, and the screen-space footprint is over-approximated by
    an isotropic radius derived from the maximum world-space scale.  The
    over-approximation guarantees the coarse filter never rejects a Gaussian
    the precise (fine-grained) test would accept.

    Returns
    -------
    (means2d, depths, coarse_radii):
        Projected pixel centres, camera-space depths and conservative pixel
        radii.
    """
    positions = np.asarray(positions, dtype=np.float64)
    max_scales = np.asarray(max_scales, dtype=np.float64).reshape(-1)
    cam = camera.world_to_camera(positions)
    depths = cam[:, 2]
    safe_z = np.where(np.abs(depths) < 1e-9, 1e-9, depths)
    px = camera.fx * cam[:, 0] / safe_z + camera.cx
    py = camera.fy * cam[:, 1] / safe_z + camera.cy
    focal = max(camera.fx, camera.fy)
    # Conservative isotropic radius: 3 sigma of the max scale, projected at
    # the Gaussian's depth, inflated by the largest possible singular value
    # of the perspective Jacobian inside the (clamped) frustum so the coarse
    # radius is a strict over-approximation of the fine-grained radius, plus
    # the anti-aliasing dilation the fine pass adds.
    lim_x = 1.3 * camera.width / (2.0 * camera.fx)
    lim_y = 1.3 * camera.height / (2.0 * camera.fy)
    jacobian_bound = np.sqrt(1.0 + lim_x ** 2 + lim_y ** 2)
    dilation_px = np.sqrt(COV2D_DILATION) * RADIUS_SIGMA_CUTOFF
    coarse_radii = (
        np.ceil(
            RADIUS_SIGMA_CUTOFF
            * jacobian_bound
            * focal
            * max_scales
            / np.clip(np.abs(safe_z), 1e-9, None)
        )
        + np.ceil(dilation_px)
        + 1.0
    )
    return np.stack([px, py], axis=1), depths, coarse_radii
