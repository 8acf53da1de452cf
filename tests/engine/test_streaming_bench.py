"""Smoke test of the streaming render-path benchmark harness."""


def test_streaming_benchmark_smoke():
    """The streaming benchmark verifies equivalence on a reduced scene."""
    from repro.engine.bench import run_streaming_benchmark

    result = run_streaming_benchmark(
        num_gaussians=400, width=48, height=36, repeats=1, tile_workers=2
    )
    assert result.stats_equal, result.stats_detail
    assert result.max_image_delta <= 1e-9
    assert result.speedup > 0
    entry = result.as_dict()
    assert entry["seconds"]["vectorized"] > 0
    assert "vectorized_parallel" in entry["seconds"]
    assert entry["parallel_speedup"] > 0 and entry["parallel_speedup_iqr"] >= 0
    assert "speedup" in result.format() or "speedup" in entry
