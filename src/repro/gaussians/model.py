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

import hashlib
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
    # ``np.array`` copies, so the model owns every array it freezes.
    arr = np.array(array, dtype=np.float32)
    if arr.ndim < 1 or arr.shape[1:] != shape_suffix:
        raise ValueError(
            f"{name} must have shape (N, {', '.join(map(str, shape_suffix))}), "
            f"got {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class GaussianModel:
    """A scene represented as a cloud of anisotropic 3D Gaussians.

    All arrays share the leading dimension ``N`` (number of Gaussians) and
    are stored as ``float32`` — the same precision the accelerator's DRAM
    layout assumes when counting bytes.

    A model is a value: construction copies, checks and normalizes the six
    arrays once and then marks them read-only, so no field can be
    reassigned and no array written.  A changed model is a new one, e.g.
    ``dataclasses.replace(model, scales=...)``.

    Attributes
    ----------
    positions:
        ``(N, 3)`` Gaussian centres in world space.
    scales:
        ``(N, 3)`` per-axis standard deviations (always positive).
    rotations:
        ``(N, 4)`` unit quaternions ``(w, x, y, z)``.
    opacities:
        ``(N,)`` opacity, nominally in ``[0, 1]``.
    sh_dc:
        ``(N, 3)`` zeroth-order SH (DC) colour coefficients.
    sh_rest:
        ``(N, 15, 3)`` SH coefficients for degrees 1..3.

    Every value must be finite and every scale positive.
    """

    positions: np.ndarray
    scales: np.ndarray
    rotations: np.ndarray
    opacities: np.ndarray
    sh_dc: np.ndarray
    sh_rest: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        positions = _as_float32(self.positions, "positions", (3,))
        n = len(positions)
        sh_rest = self.sh_rest
        if sh_rest is None:
            sh_rest = np.zeros((n, SH_REST_COEFFS, 3), dtype=np.float32)
        arrays = {
            "positions": positions,
            "scales": _as_float32(self.scales, "scales", (3,)),
            "rotations": _as_float32(self.rotations, "rotations", (4,)),
            "opacities": np.array(np.ravel(self.opacities), dtype=np.float32),
            "sh_dc": _as_float32(self.sh_dc, "sh_dc", (3,)),
            "sh_rest": _as_float32(sh_rest, "sh_rest", (SH_REST_COEFFS, 3)),
        }
        for name, array in arrays.items():
            if len(array) != n:
                raise ValueError(f"{name} has {len(array)} rows, expected {n}")
            if not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite, not NaN or inf")
        if np.any(arrays["scales"] <= 0):
            raise ValueError("scales must be strictly positive")
        # Normalizing is not idempotent in float32, so every construction
        # (``copy`` and ``subset`` included) may move rotation bits.
        rotations = arrays["rotations"]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(rotations, axis=1, keepdims=True)
        huge = np.isinf(norms[:, 0])
        if huge.any():  # squares beyond float32: scale those rows down first
            rotations[huge] /= np.abs(rotations[huge]).max(axis=1, keepdims=True)
            norms[huge] = np.linalg.norm(rotations[huge], axis=1, keepdims=True)
        norms = np.where(norms < 1e-12, 1.0, norms)
        arrays["rotations"] = (rotations / norms).astype(np.float32)
        self._freeze(arrays)

    def _freeze(self, arrays: dict) -> None:
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable and may view the pickle's
        # buffer: the model takes frozen copies of its own.
        arrays = {
            name: np.array(value)
            for name, value in state.items()
            if isinstance(value, np.ndarray)
        }
        self.__dict__.update(state)
        self._freeze(arrays)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.positions.shape[0])

    @property
    def max_scales(self) -> np.ndarray:
        """``(N,)`` maximum per-Gaussian scale — the 4th coarse-filter param."""
        return self.scales.max(axis=1)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def copy(self) -> "GaussianModel":
        """A rebuilt model of the same parameters.

        The copy goes through construction again, which re-normalizes the
        rotations: a copy may differ from its source in their last bits,
        and then its :meth:`content_fingerprint` differs too.
        """
        return GaussianModel(
            positions=self.positions,
            scales=self.scales,
            rotations=self.rotations,
            opacities=self.opacities,
            sh_dc=self.sh_dc,
            sh_rest=self.sh_rest,
        )

    def content_fingerprint(self) -> str:
        """Digest of all parameter arrays, computed at most once per model.

        Two models with equal fingerprints render identically.  The
        engine's :class:`~repro.engine.service.RenderService` keys its
        shared renderers by it.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            for array in (
                self.positions,
                self.scales,
                self.rotations,
                self.opacities,
                self.sh_dc,
                self.sh_rest,
            ):
                digest.update(array.tobytes())
            fingerprint = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

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
