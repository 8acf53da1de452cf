"""Codebooks for one Gaussian feature group.

Each feature group (scale, rotation, DC colour, SH rest) gets its own
codebook so quantization precision is preserved per group, exactly as the
paper's data layout prescribes ("we encode different parameters into
separate codebooks").  A codebook knows its index bit-width and its on-chip
storage footprint, which the SRAM sizing and traffic models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.compression.kmeans import kmeans, nearest_centroids


@dataclass(frozen=True)
class CodebookSpec:
    """Static description of one feature-group codebook."""

    name: str
    num_entries: int
    vector_dim: int

    @property
    def index_bits(self) -> int:
        """Bits per stored index (ceil(log2(entries)))."""
        return max(1, int(np.ceil(np.log2(self.num_entries))))

    @property
    def storage_bytes(self) -> int:
        """On-chip bytes needed to hold the codebook (fp16 entries)."""
        return self.num_entries * self.vector_dim * 2


class Codebook:
    """A trained codebook: centroids plus encode/decode."""

    def __init__(self, spec: CodebookSpec, centroids: np.ndarray) -> None:
        centroids = np.asarray(centroids, dtype=np.float64)
        if centroids.shape != (spec.num_entries, spec.vector_dim):
            raise ValueError(
                f"centroids shape {centroids.shape} does not match spec "
                f"({spec.num_entries}, {spec.vector_dim})"
            )
        self.spec = spec
        self.centroids = centroids

    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        spec: CodebookSpec,
        vectors: np.ndarray,
        max_iterations: int = 20,
        seed: int = 0,
    ) -> "Codebook":
        """Train a codebook on ``(n, vector_dim)`` feature vectors."""
        return cls.train_encode(spec, vectors, max_iterations, seed)[0]

    @classmethod
    def train_encode(
        cls,
        spec: CodebookSpec,
        vectors: np.ndarray,
        max_iterations: int = 20,
        seed: int = 0,
    ) -> Tuple["Codebook", np.ndarray]:
        """Train a codebook and return it with the training vectors' indices.

        The indices are k-means' final assignment, handed over so callers
        skip a second nearest-centroid search.  With fewer entries than
        vectors they equal ``encode(vectors)`` bit for bit.  Otherwise each
        vector keeps its own (padded) entry, which holds the vector's exact
        bits, like the entry ``encode`` picks unless another vector lies
        within rounding error of it.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != spec.vector_dim:
            raise ValueError(
                f"expected vectors of shape (n, {spec.vector_dim}), got {vectors.shape}"
            )
        result = kmeans(
            vectors, spec.num_entries, max_iterations=max_iterations, seed=seed
        )
        return cls(spec, result.centroids), result.assignments

    # ------------------------------------------------------------------
    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Closest-centroid indices for ``(n, vector_dim)`` vectors."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.spec.vector_dim:
            raise ValueError(
                f"expected vectors of shape (n, {self.spec.vector_dim}), "
                f"got {vectors.shape}"
            )
        return nearest_centroids(vectors, self.centroids)[0]

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Centroid vectors for the given indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if np.any(indices < 0) or np.any(indices >= self.spec.num_entries):
            raise ValueError("codebook index out of range")
        return self.centroids[indices]
