"""Frame-preparation cache: hits, invalidation, and render equivalence."""

import numpy as np
import pytest

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from repro.engine.cache import FrameCache
from tests.conftest import make_camera, make_model


@pytest.fixture(scope="module")
def renderer():
    model = make_model(num_gaussians=200, extent=5.0, scale=0.1, seed=12)
    config = StreamingConfig(voxel_size=1.5, use_vq=False)
    return StreamingRenderer(model, config)


def test_repeated_render_hits_cache(renderer):
    camera = make_camera(width=48, height=32, distance=6.0)
    first = renderer.render(camera)
    misses_after_first = renderer.frame_cache.misses
    hits_after_first = renderer.frame_cache.hits
    second = renderer.render(camera)
    assert renderer.frame_cache.misses == misses_after_first
    assert renderer.frame_cache.hits > hits_after_first
    # Cached preparation must not change the output or the accounting.
    np.testing.assert_array_equal(first.image, second.image)
    assert first.stats.rays_sampled == second.stats.rays_sampled
    assert first.stats.dag_edges == second.stats.dag_edges
    assert first.stats.ordering_table_entries == second.stats.ordering_table_entries
    assert first.stats.traffic.total_bytes == second.stats.traffic.total_bytes


def test_new_pose_misses_cache(renderer):
    camera_a = make_camera(width=48, height=32, distance=6.0)
    camera_b = make_camera(width=48, height=32, distance=7.5)
    renderer.render(camera_a)
    misses_before = renderer.frame_cache.misses
    renderer.render(camera_b)
    assert renderer.frame_cache.misses == misses_before + 1


def test_cache_capacity_evicts_lru():
    cache = FrameCache(capacity=2)
    cache.put("a", "prep-a")
    cache.put("b", "prep-b")
    assert cache.get("a") == "prep-a"       # refresh a; b is now LRU
    cache.put("c", "prep-c")
    assert cache.get("b") is None
    assert cache.get("a") == "prep-a"
    assert cache.get("c") == "prep-c"
    assert len(cache) == 2


def test_cache_disabled_at_zero_capacity():
    model = make_model(num_gaussians=100, extent=5.0, scale=0.1, seed=13)
    config = StreamingConfig(voxel_size=1.5, use_vq=False, frame_cache_size=0)
    renderer = StreamingRenderer(model, config)
    camera = make_camera(width=32, height=32, distance=6.0)
    renderer.render(camera)
    renderer.render(camera)
    assert renderer.frame_cache.hits == 0
    assert len(renderer.frame_cache) == 0


def test_pose_key_distinguishes_intrinsics():
    camera_a = make_camera(width=48, height=32)
    camera_b = make_camera(width=64, height=32)
    assert camera_a.pose_key() != camera_b.pose_key()
    assert camera_a.pose_key() == make_camera(width=48, height=32).pose_key()
