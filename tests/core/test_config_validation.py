"""StreamingConfig.__post_init__ validation and error messages."""

import pytest

from repro.core.config import StreamingConfig
from repro.engine.kernels import RENDER_PATHS
from repro.gaussians.rasterizer import TileRasterizer


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"voxel_size": 0.0}, "voxel_size must be positive, got 0.0"),
        ({"voxel_size": -2.0}, "voxel_size must be positive, got -2.0"),
        ({"voxel_size": float("nan")}, "voxel_size must be finite, got nan"),
        ({"voxel_size": float("inf")}, "voxel_size must be finite, got inf"),
        ({"voxel_size": -float("inf")}, "voxel_size must be finite, got -inf"),
        ({"tile_size": 0}, "tile_size must be positive, got 0"),
        ({"tile_size": -16}, "tile_size must be positive, got -16"),
        ({"ray_stride": 0}, "ray_stride must be positive, got 0"),
        ({"sh_degree": -1}, "sh_degree must be in [0, 3], got -1"),
        ({"sh_degree": 4}, "sh_degree must be in [0, 3], got 4"),
        ({"max_voxels_per_ray": 0}, "max_voxels_per_ray must be positive, got 0"),
        ({"frame_cache_size": -1}, "frame_cache_size must be non-negative, got -1"),
    ],
)
def test_invalid_fields_report_offending_value(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        StreamingConfig(**kwargs)
    assert str(excinfo.value) == message


def test_unknown_streaming_kernel_lists_available():
    with pytest.raises(ValueError) as excinfo:
        StreamingConfig(streaming_kernel="cuda")
    assert str(excinfo.value) == (
        "unknown streaming_kernel 'cuda'; available: ['reference', 'vectorized']"
    )


def test_unknown_rasterizer_kernel_lists_available():
    """Both renderers validate path names against one tuple, one message."""
    with pytest.raises(ValueError) as excinfo:
        TileRasterizer(kernel="nope")
    assert str(excinfo.value) == (
        "unknown kernel 'nope'; available: ['reference', 'vectorized']"
    )
    assert RENDER_PATHS == ("reference", "vectorized")


def test_with_options_revalidates():
    config = StreamingConfig()
    with pytest.raises(ValueError, match="voxel_size must be positive, got -1.0"):
        config.with_options(voxel_size=-1.0)


def test_valid_configuration_accepts_bounds():
    config = StreamingConfig(sh_degree=0, frame_cache_size=0)
    assert config.sh_degree == 0
    assert config.frame_cache_size == 0
