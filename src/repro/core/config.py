"""Configuration of the streaming pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.engine.kernels import check_render_path


def check_positive_finite(name: str, value: float) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is finite and above 0."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class StreamingConfig:
    """Parameters of the memory-centric streaming renderer.

    Attributes
    ----------
    voxel_size:
        Edge length of the cubic voxels the scene is partitioned into.  The
        paper uses 2.0 for real-world scenes and 0.4 for synthetic scenes
        (Sec. V-A; each registered scene's
        :attr:`~repro.scenes.registry.SceneDescriptor.default_voxel_size`)
        and studies the sensitivity in Fig. 12.
    tile_size:
        Edge length (pixels) of the pixel groups rendered together.
    ray_stride:
        Stride (pixels) between the rays sampled inside a pixel group when
        building the voxel ordering table.  1 samples every pixel; the VSU
        hardware samples a subset, which is sufficient because neighbouring
        pixels traverse nearly identical voxel sequences.
    sh_degree:
        Spherical-harmonics degree used for colour.
    use_coarse_filter:
        Enable the coarse-grained filter (disabled in the "w/o CGF" and
        "w/o VQ+CGF" variants of Fig. 11).
    use_vq:
        Fetch the second half as codebook indices (disabled in the
        "w/o VQ+CGF" variant).
    max_voxels_per_ray:
        Safety bound on traversal length.
    background:
        Background colour composited behind the accumulated radiance.
    streaming_kernel:
        Render path, one of :data:`repro.engine.kernels.RENDER_PATHS`.
        ``"vectorized"`` (default) is the streaming frame path: it filters
        every voxel of every tile in one frame-level pass (each Gaussian
        projected once per frame), depth-sorts the survivors voxel by
        voxel, and blends all tiles' streams over their stacked pixel
        columns (see :mod:`repro.core.pipeline`).  ``"reference"`` is the
        voxel-at-a-time loop kept as the oracle.  Both produce identical
        :class:`StreamingStats` and images within 1e-9.  Tile-centric
        renderers built from the configuration
        (:meth:`RenderService.tile_rasterizer`) take the same path.
    frame_cache_size:
        Number of prepared frames (voxel depth map, per-tile ordering
        tables, topological orders) memoized per camera pose; 0 disables
        the frame-preparation cache.
    """

    voxel_size: float = 2.0
    tile_size: int = 16
    ray_stride: int = 4
    sh_degree: int = 3
    use_coarse_filter: bool = True
    use_vq: bool = True
    max_voxels_per_ray: int = 512
    background: tuple = (0.0, 0.0, 0.0)
    streaming_kernel: str = "vectorized"
    frame_cache_size: int = 8

    def __post_init__(self) -> None:
        check_positive_finite("voxel_size", self.voxel_size)
        if self.tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {self.tile_size!r}")
        if self.ray_stride <= 0:
            raise ValueError(f"ray_stride must be positive, got {self.ray_stride!r}")
        if self.sh_degree < 0 or self.sh_degree > 3:
            raise ValueError(f"sh_degree must be in [0, 3], got {self.sh_degree!r}")
        if self.max_voxels_per_ray <= 0:
            raise ValueError(
                f"max_voxels_per_ray must be positive, got {self.max_voxels_per_ray!r}"
            )
        check_render_path(self.streaming_kernel, "streaming_kernel")
        if self.frame_cache_size < 0:
            raise ValueError(
                f"frame_cache_size must be non-negative, got {self.frame_cache_size!r}"
            )

    def with_options(self, **kwargs) -> "StreamingConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)
