"""Configuration of the streaming pipeline."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.kernels import check_render_path


@dataclass(frozen=True)
class StreamingConfig:
    """Parameters of the memory-centric streaming renderer.

    Attributes
    ----------
    voxel_size:
        Edge length of the cubic voxels the scene is partitioned into.  The
        paper uses 2.0 for real-world scenes and 0.4 for synthetic scenes
        (Sec. V-A) and studies the sensitivity in Fig. 12.
    tile_size:
        Edge length (pixels) of the pixel groups rendered together.
    ray_stride:
        Stride (pixels) between the rays sampled inside a pixel group when
        building the voxel ordering table.  1 samples every pixel; the VSU
        hardware samples a subset, which is sufficient because neighbouring
        pixels traverse nearly identical voxel sequences.
    ray_step_fraction:
        Ray-marching step used by the voxel traversal, as a fraction of the
        voxel size (only used by the sampling-based traversal; the DDA
        traversal is exact).
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
    ray_step_fraction: float = 0.5
    sh_degree: int = 3
    use_coarse_filter: bool = True
    use_vq: bool = True
    max_voxels_per_ray: int = 512
    background: tuple = (0.0, 0.0, 0.0)
    streaming_kernel: str = "vectorized"
    frame_cache_size: int = 8

    def __post_init__(self) -> None:
        if self.voxel_size <= 0:
            raise ValueError(f"voxel_size must be positive, got {self.voxel_size!r}")
        if self.tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {self.tile_size!r}")
        if self.ray_stride <= 0:
            raise ValueError(f"ray_stride must be positive, got {self.ray_stride!r}")
        if not 0 < self.ray_step_fraction <= 1.0:
            raise ValueError(
                f"ray_step_fraction must be in (0, 1], got {self.ray_step_fraction!r}"
            )
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

    @classmethod
    def for_scene_category(cls, category: str, **kwargs) -> "StreamingConfig":
        """The paper's default voxel size for a scene category.

        ``real`` scenes use a voxel size of 2.0 and ``synthetic`` scenes use
        0.4 (Sec. V-A).
        """
        if category == "real":
            voxel_size = 2.0
        elif category == "synthetic":
            voxel_size = 0.4
        else:
            raise ValueError(f"unknown scene category {category!r}")
        return cls(voxel_size=voxel_size, **kwargs)
