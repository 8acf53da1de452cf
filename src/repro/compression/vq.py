"""Vector-quantised storage of the fine-filter ("second half") features.

Per the paper's software setup (Sec. V-A), the default configuration uses a
4096-entry codebook each for scale, rotation and DC colour and a 512-entry
codebook for the higher-order SH coefficients.  Opacity (a single scalar) is
kept uncompressed.  The quantizer reports the per-Gaussian byte footprint of
both the raw and the compressed second half, which the data-layout and
traffic models use to quantify the DRAM-traffic reduction (the paper reports
92.3 % for the voxel-streaming reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.compression.codebook import Codebook, CodebookSpec
from repro.gaussians.model import FINE_PARAMS_PER_GAUSSIAN, GaussianModel

#: Default codebook configuration from Sec. V-A.
DEFAULT_VQ_SPECS: Tuple[CodebookSpec, ...] = (
    CodebookSpec(name="scale", num_entries=4096, vector_dim=3),
    CodebookSpec(name="rotation", num_entries=4096, vector_dim=4),
    CodebookSpec(name="dc", num_entries=4096, vector_dim=3),
    CodebookSpec(name="sh", num_entries=512, vector_dim=45),
)

#: Bytes of the uncompressed second half (55 float32 parameters).
RAW_SECOND_HALF_BYTES = FINE_PARAMS_PER_GAUSSIAN * 4

#: Bytes used for the uncompressed opacity scalar kept alongside the indices.
OPACITY_BYTES = 4


def _feature_groups(model: GaussianModel) -> Dict[str, np.ndarray]:
    """Split a model's second-half features into the quantized groups."""
    return {
        "scale": model.scales.astype(np.float64),
        "rotation": model.rotations.astype(np.float64),
        "dc": model.sh_dc.astype(np.float64),
        "sh": model.sh_rest.reshape(len(model), -1).astype(np.float64),
    }


@dataclass
class QuantizedGaussians:
    """Codebook indices (and raw opacity) for a model's second half."""

    indices: Dict[str, np.ndarray]
    opacities: np.ndarray
    num_gaussians: int

    def subset(self, idx: np.ndarray) -> "QuantizedGaussians":
        """Indices restricted to a subset of Gaussians."""
        idx = np.asarray(idx)
        return QuantizedGaussians(
            indices={k: v[idx] for k, v in self.indices.items()},
            opacities=self.opacities[idx],
            num_gaussians=len(idx),
        )


@dataclass
class VectorQuantizer:
    """Trains per-group codebooks and encodes / decodes Gaussian models."""

    specs: Tuple[CodebookSpec, ...] = DEFAULT_VQ_SPECS
    kmeans_iterations: int = 12
    seed: int = 0
    codebooks: Dict[str, Codebook] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def fit(self, model: GaussianModel) -> "VectorQuantizer":
        """Train all codebooks on ``model``'s second-half features."""
        self.fit_encode(model)
        return self

    def fit_encode(self, model: GaussianModel) -> QuantizedGaussians:
        """Train all codebooks on ``model`` and return ``model``'s encoding.

        The indices are each group's k-means final assignment, handed to
        the caller instead of searched again by :meth:`encode` (see
        :meth:`Codebook.train_encode` for how the two agree).  The quantizer
        keeps no copy of them: :meth:`encode` always searches the codebooks
        as they are.
        """
        groups = _feature_groups(model)
        indices = {}
        for spec in self.specs:
            if spec.name not in groups:
                raise KeyError(f"no feature group named {spec.name!r}")
            vectors = groups[spec.name]
            if vectors.shape[1] != spec.vector_dim:
                raise ValueError(
                    f"group {spec.name!r} has dim {vectors.shape[1]}, "
                    f"spec expects {spec.vector_dim}"
                )
            self.codebooks[spec.name], indices[spec.name] = Codebook.train_encode(
                spec, vectors, max_iterations=self.kmeans_iterations, seed=self.seed
            )
        return QuantizedGaussians(
            indices=indices,
            opacities=model.opacities.copy(),
            num_gaussians=len(model),
        )

    @property
    def is_fitted(self) -> bool:
        return len(self.codebooks) == len(self.specs)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("VectorQuantizer.fit must be called first")

    # ------------------------------------------------------------------
    def encode(self, model: GaussianModel) -> QuantizedGaussians:
        """Quantise a model's second half into codebook indices."""
        self._require_fitted()
        groups = _feature_groups(model)
        indices = {
            name: self.codebooks[name].encode(groups[name]) for name in self.codebooks
        }
        return QuantizedGaussians(
            indices=indices,
            opacities=model.opacities.copy(),
            num_gaussians=len(model),
        )

    def decode(
        self, quantized: QuantizedGaussians, model: GaussianModel
    ) -> GaussianModel:
        """Reconstruct a model from quantized features.

        Positions and maximum scale come from ``model`` (the uncompressed
        first half stays exact); the decoded second half replaces the rest.
        """
        self._require_fitted()
        if quantized.num_gaussians != len(model):
            raise ValueError("quantized data and model sizes differ")
        scales = self.codebooks["scale"].decode(quantized.indices["scale"])
        rotations = self.codebooks["rotation"].decode(quantized.indices["rotation"])
        sh_dc = self.codebooks["dc"].decode(quantized.indices["dc"])
        sh_rest = self.codebooks["sh"].decode(quantized.indices["sh"]).reshape(
            len(model), 15, 3
        )
        return GaussianModel(
            positions=model.positions.copy(),
            scales=np.clip(scales, 1e-6, None),
            rotations=rotations,
            opacities=quantized.opacities.copy(),
            sh_dc=sh_dc,
            sh_rest=sh_rest,
        )

    def roundtrip(self, model: GaussianModel) -> GaussianModel:
        """Encode then decode a model (the model the accelerator renders)."""
        return self.decode(self.encode(model), model)

    # ------------------------------------------------------------------
    # Byte accounting for the traffic / data-layout models
    # ------------------------------------------------------------------
    def compressed_bytes_per_gaussian(self) -> float:
        """DRAM bytes per Gaussian for the compressed second half.

        Indices of all groups are packed together and padded to whole bytes
        per Gaussian; the raw opacity scalar is stored alongside.
        """
        total_bits = sum(spec.index_bits for spec in self.specs)
        packed = float(np.ceil(total_bits / 8.0))
        return packed + OPACITY_BYTES

    @staticmethod
    def raw_bytes_per_gaussian() -> float:
        """DRAM bytes per Gaussian for the uncompressed second half."""
        return float(RAW_SECOND_HALF_BYTES)

    def traffic_reduction(self) -> float:
        """Fractional second-half traffic reduction achieved by VQ."""
        return 1.0 - self.compressed_bytes_per_gaussian() / self.raw_bytes_per_gaussian()

    def codebook_storage_bytes(self) -> int:
        """Total on-chip SRAM bytes needed to hold all codebooks."""
        return sum(spec.storage_bytes for spec in self.specs)
