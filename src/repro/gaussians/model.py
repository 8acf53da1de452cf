"""Gaussian parameter model.

The paper's accounting (Sec. II-B) counts 59 parameters per Gaussian:

* 3   — 3D position ``(x, y, z)``
* 3   — anisotropic scale ``(sx, sy, sz)``
* 4   — rotation quaternion ``(w, x, y, z)``
* 1   — opacity
* 3   — DC (zeroth-order spherical-harmonics) colour
* 45  — higher-order spherical-harmonics coefficients (15 per channel,
  degrees 1..3)

The first four of these (position + maximum scale) form the "first half"
used by the coarse-grained filter; everything else is the "second half"
compressed with vector quantization in the customized data layout
(Sec. III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Total number of scalar parameters per Gaussian, matching the paper.
PARAMS_PER_GAUSSIAN = 59

#: Parameters fetched by the coarse-grained filter (x, y, z, max scale).
COARSE_PARAMS_PER_GAUSSIAN = 4

#: Parameters only needed after a Gaussian passes the coarse filter.
FINE_PARAMS_PER_GAUSSIAN = PARAMS_PER_GAUSSIAN - COARSE_PARAMS_PER_GAUSSIAN

#: Number of higher-order SH coefficients per colour channel (degrees 1..3).
SH_REST_COEFFS = 15


def _as_float32(array: np.ndarray, name: str, shape_suffix: tuple) -> np.ndarray:
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim < 1 or arr.shape[1:] != shape_suffix:
        raise ValueError(
            f"{name} must have shape (N, {', '.join(map(str, shape_suffix))}), "
            f"got {arr.shape}"
        )
    return arr


@dataclass
class GaussianModel:
    """A scene represented as a cloud of anisotropic 3D Gaussians.

    All arrays share the leading dimension ``N`` (number of Gaussians) and
    are stored as ``float32`` — the same precision the accelerator's DRAM
    layout assumes when counting bytes.

    Attributes
    ----------
    positions:
        ``(N, 3)`` Gaussian centres in world space.
    scales:
        ``(N, 3)`` per-axis standard deviations (always positive).
    rotations:
        ``(N, 4)`` unit quaternions ``(w, x, y, z)``.
    opacities:
        ``(N,)`` opacity in ``[0, 1]``.
    sh_dc:
        ``(N, 3)`` zeroth-order SH (DC) colour coefficients.
    sh_rest:
        ``(N, 15, 3)`` SH coefficients for degrees 1..3.
    """

    positions: np.ndarray
    scales: np.ndarray
    rotations: np.ndarray
    opacities: np.ndarray
    sh_dc: np.ndarray
    sh_rest: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.positions = _as_float32(self.positions, "positions", (3,))
        self.scales = _as_float32(self.scales, "scales", (3,))
        self.rotations = _as_float32(self.rotations, "rotations", (4,))
        self.opacities = np.asarray(self.opacities, dtype=np.float32).reshape(-1)
        self.sh_dc = _as_float32(self.sh_dc, "sh_dc", (3,))
        if self.sh_rest is None:
            self.sh_rest = np.zeros(
                (len(self.positions), SH_REST_COEFFS, 3), dtype=np.float32
            )
        else:
            self.sh_rest = np.asarray(self.sh_rest, dtype=np.float32)
            if self.sh_rest.shape != (len(self.positions), SH_REST_COEFFS, 3):
                raise ValueError(
                    "sh_rest must have shape (N, 15, 3), got "
                    f"{self.sh_rest.shape}"
                )
        n = len(self.positions)
        for name in ("scales", "rotations", "opacities", "sh_dc"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"{name} has {len(getattr(self, name))} rows, expected {n}"
                )
        if np.any(self.scales <= 0):
            raise ValueError("scales must be strictly positive")
        self.normalize_rotations()

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.positions.shape[0])

    @property
    def num_gaussians(self) -> int:
        """Number of Gaussians in the model."""
        return len(self)

    @property
    def max_scales(self) -> np.ndarray:
        """``(N,)`` maximum per-Gaussian scale — the 4th coarse-filter param."""
        return self.scales.max(axis=1)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "GaussianModel":
        """An empty model with zero Gaussians."""
        return cls(
            positions=np.zeros((0, 3), dtype=np.float32),
            scales=np.ones((0, 3), dtype=np.float32),
            rotations=np.tile(
                np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32), (0, 1)
            ).reshape(0, 4),
            opacities=np.zeros((0,), dtype=np.float32),
            sh_dc=np.zeros((0, 3), dtype=np.float32),
            sh_rest=np.zeros((0, SH_REST_COEFFS, 3), dtype=np.float32),
        )

    def copy(self) -> "GaussianModel":
        """Deep copy of the model."""
        return GaussianModel(
            positions=self.positions.copy(),
            scales=self.scales.copy(),
            rotations=self.rotations.copy(),
            opacities=self.opacities.copy(),
            sh_dc=self.sh_dc.copy(),
            sh_rest=self.sh_rest.copy(),
        )

    def content_fingerprint(self) -> str:
        """Digest of all parameter arrays.

        Two models with equal fingerprints render identically; in-place
        parameter edits change the fingerprint.  The engine's
        :class:`~repro.engine.service.RenderService` keys its shared
        renderers by it, so mutate-then-rerender callers always get a
        renderer built from the current parameters.
        """
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        for array in (
            self.positions,
            self.scales,
            self.rotations,
            self.opacities,
            self.sh_dc,
            self.sh_rest,
        ):
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def subset(self, indices: np.ndarray) -> "GaussianModel":
        """A new model containing only the Gaussians at ``indices``."""
        indices = np.asarray(indices)
        return GaussianModel(
            positions=self.positions[indices],
            scales=self.scales[indices],
            rotations=self.rotations[indices],
            opacities=self.opacities[indices],
            sh_dc=self.sh_dc[indices],
            sh_rest=self.sh_rest[indices],
        )

    def normalize_rotations(self) -> None:
        """Re-normalise quaternions in place (guards against drift)."""
        norms = np.linalg.norm(self.rotations, axis=1, keepdims=True)
        norms = np.where(norms < 1e-12, 1.0, norms)
        self.rotations = (self.rotations / norms).astype(np.float32)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def bounding_box(self, padding: float = 0.0) -> tuple:
        """Axis-aligned bounding box ``(min_xyz, max_xyz)`` of the centres.

        Parameters
        ----------
        padding:
            Extra margin (in world units) added on every side — useful when
            the voxel grid must also contain the Gaussian extents, not just
            their centres.
        """
        if len(self) == 0:
            zero = np.zeros(3, dtype=np.float32)
            return zero, zero
        lo = self.positions.min(axis=0) - padding
        hi = self.positions.max(axis=0) + padding
        return lo.astype(np.float32), hi.astype(np.float32)

    # ------------------------------------------------------------------
    # Flattened parameter views (used by the data-layout byte accounting)
    # ------------------------------------------------------------------
    def first_half(self) -> np.ndarray:
        """``(N, 4)`` uncompressed coarse-filter parameters: xyz + max scale."""
        return np.concatenate(
            [self.positions, self.max_scales[:, None]], axis=1
        ).astype(np.float32)

    def second_half(self) -> np.ndarray:
        """``(N, 55)`` fine-filter parameters (everything but xyz + max scale).

        The maximum scale already lives in the first half, so only the two
        remaining scale components are stored here (matching the paper's
        accounting of 4 + 55 = 59 parameters).
        """
        n = len(self)
        if n == 0:
            residual_scales = np.zeros((0, 2), dtype=np.float32)
        else:
            order = np.argsort(self.scales, axis=1)
            rows = np.arange(n)[:, None]
            # The two smallest components (the largest is in the first half).
            residual_scales = self.scales[rows, order[:, :2]]
        return np.concatenate(
            [
                residual_scales,
                self.rotations,
                self.opacities[:, None],
                self.sh_dc,
                self.sh_rest.reshape(len(self), -1),
            ],
            axis=1,
        ).astype(np.float32)
