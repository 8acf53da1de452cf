"""Tests of the benchmark's pure parts; none of them runs a workload."""

from __future__ import annotations

import json
import math
import sys
import types
from dataclasses import asdict

import pytest

from perfbench import inputs, layers, report
from perfbench.stats import beyond, highest_supported, mode_boundary, percentile
from perfbench.tracer import Span, Target, Tracer, covered, self_times
from perfbench.workloads import Op, Outcome


# ----------------------------------------------------------------------
# percentile selection
# ----------------------------------------------------------------------
def test_highest_percentile_keeps_ten_samples_beyond():
    assert highest_supported(18) is None
    assert highest_supported(20) == 0.5
    assert highest_supported(99) == 0.5
    assert highest_supported(100) == 0.9
    assert beyond(0.9, 100) == 10
    assert highest_supported(999) == 0.9
    assert highest_supported(1000) == 0.99


def test_failures_count_as_misses():
    ok = [float(i) for i in range(1, 96)]
    latencies = ok + [math.inf] * 5
    # Failures still count toward n, so p90 keeps its support ...
    assert highest_supported(len(latencies)) == 0.9
    assert percentile(latencies, 0.9) == 90.0
    # ... and a percentile whose rank lands on a failure is missing.
    assert percentile(ok[:85] + [math.inf] * 15, 0.9) == math.inf


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 1.0) == 5.0
    assert percentile([float(i) for i in range(1, 101)], 0.9) == 90.0


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(sid, name, start, end, parent=0, thread=1, rid=None):
    return Span(sid, name, start, end, parent, thread, rid)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, "frame", 0.0, 10.0),
        _span(2, "filter", 2.0, 5.0, parent=1),
        _span(3, "blend", 3.0, 4.0, parent=2),
        _span(4, "traffic", 6.0, 7.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_overlapping_children_are_counted_once():
    assert covered((0.0, 10.0), [(2.0, 5.0), (4.0, 8.0), (9.0, 12.0)]) == pytest.approx(7.0)
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_adopts_cross_thread_spans_by_request_id():
    spans = [
        _span(1, "op", 0.0, 10.0, thread=1, rid="r1"),
        _span(2, "service.encode", 0.5, 1.0, parent=1, thread=1, rid="r1"),
        _span(3, "service.admit", 1.0, 2.0, thread=2, rid="r1"),
        _span(4, "service.execute", 3.0, 8.0, thread=3, rid="r1"),
        _span(5, "api.context", 4.0, 6.0, parent=4, thread=3),
        _span(6, "service.execute", 2.0, 9.0, thread=3, rid="other"),
    ]
    selfs = self_times(spans, op_names=("op",))
    # Covered: encode 0.5 + admit 1.0 + execute 5.0; the other request's
    # execution and the nested api span do not count again.
    assert selfs[1] == pytest.approx(3.5)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[6] == pytest.approx(7.0)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _dump(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def test_viewer_poses_are_byte_identical_per_seed():
    first = _dump([[asdict(p), hit] for p, hit in inputs.viewer_frames(7, 2)])
    again = _dump([[asdict(p), hit] for p, hit in inputs.viewer_frames(7, 2)])
    other = _dump([[asdict(p), hit] for p, hit in inputs.viewer_frames(8, 2)])
    assert first == again
    assert first != other


def test_viewer_mix_is_the_same_for_every_seed():
    mixes = set()
    for seed in range(5):
        frames = inputs.viewer_frames(seed, 2)
        mixes.add(tuple(sorted((pose.scene, hit) for pose, hit in frames)))
    assert len(mixes) == 1
    frames = inputs.viewer_frames(3, 2)
    hits = sum(1 for _, hit in frames if hit)
    assert len(frames) == 2 * inputs.VIEWER_ROUND
    assert 0 < hits < len(frames) // 2
    assert {pose.scene for pose, _ in frames} == set(inputs.VIEWER_SCENES)


def test_cold_start_order_covers_every_key():
    keys = inputs.cold_start_keys(11)
    assert len(keys) == 18 == len(set(keys))
    assert keys == inputs.cold_start_keys(11)
    assert keys != inputs.cold_start_keys(12)


# ----------------------------------------------------------------------
# mode boundaries
# ----------------------------------------------------------------------
def test_mode_boundary_warning():
    fast = [2.0 + 0.01 * i for i in range(50)]
    slow = [200.0 + i for i in range(50)]
    assert mode_boundary(fast + slow, 0.5) is not None
    assert mode_boundary(fast + slow, 0.25) is None
    assert mode_boundary(fast + slow, 0.9) is None


# ----------------------------------------------------------------------
# tracer wrapping
# ----------------------------------------------------------------------
@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.lib`` defines functions; ``fakepkg.user`` imports one by value."""
    lib = types.ModuleType("fakepkg.lib")

    def work(x):
        return x + 1

    class Grid:
        @classmethod
        def build(cls, n):
            return n * 2

        def render(self, n):
            return lib.work(n)

    lib.work, lib.Grid = work, Grid
    user = types.ModuleType("fakepkg.user")
    user.work = work
    user.call = lambda x: user.work(x)
    pkg = types.ModuleType("fakepkg")
    for name, module in (("fakepkg", pkg), ("fakepkg.lib", lib), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return lib, user


def test_tracer_wraps_by_value_imports_and_methods(fake_package):
    lib, user = fake_package
    tracer = Tracer(packages=("fakepkg",))
    tracer.install(
        [
            Target("fakepkg.lib", "work", "work"),
            Target("fakepkg.lib", "Grid.build", "build"),
            Target("fakepkg.lib", "Grid.render", "render"),
            Target("fakepkg.lib", "gone", "gone"),
            Target("fakepkg.lib", "Grid.vanished", "vanished"),
        ]
    )
    assert user.call(1) == 2
    assert lib.Grid.build(3) == 6
    assert lib.Grid().render(4) == 5
    names = [s.name for s in tracer.spans]
    assert names == ["work", "build", "work", "render"]
    render, inner = tracer.spans[3], tracer.spans[2]
    assert inner.parent == render.sid
    assert set(tracer.missing) == {"fakepkg.lib.gone", "fakepkg.lib.Grid.vanished"}
    tracer.uninstall()
    assert user.work is lib.work
    assert "build" in vars(lib.Grid) and isinstance(vars(lib.Grid)["build"], classmethod)
    user.call(1)
    assert len(tracer.spans) == 4


# ----------------------------------------------------------------------
# metrics against BENCHMARK.json
# ----------------------------------------------------------------------
def _names(section):
    return [name for name, _ in report.declared(section)]


def test_end_to_end_metrics_are_the_declared_ones():
    outcome = Outcome(
        ops=[Op("render", float(i), float(i) + 0.5, True) for i in range(4)],
        windows=[(0.0, 1.5), (2.0, 3.5)],
        setups=[{"import_s": 0.5, "boot_s": 0.1, "warm_s": 1.0}],
        peak_rss_mb=100.0,
    )
    metrics = report.end_to_end(outcome, [])
    assert sorted(metrics) == sorted(_names("end_to_end"))
    # Four ops over two 1.5-s windows; the gap between them does not count.
    assert metrics["throughput_per_s"] == pytest.approx(4 / 3.0)
    assert metrics["setup_s"] == pytest.approx(1.6)


def test_derive_gives_the_declared_per_layer_metrics_inside_the_windows():
    tracer = Tracer()
    tracer.spans = [
        _span(1, "op", 0.0, 1.0),
        _span(2, "engine.blend", 0.2, 0.6, parent=1),
        _span(3, "op", 2.0, 3.0),
        _span(4, "engine.blend", 2.1, 2.3, parent=3),
        # Between the windows (a daemon booting for the next pass).
        _span(5, "engine.blend", 1.2, 1.9),
    ]
    probe = {"renderer_hits": 1, "renderer_misses": 1}
    setup = {"import_s": 0.5, "boot_s": 0.1, "warm_s": 1.0}
    metrics, summary = layers.derive(tracer, [(0.0, 1.0), (2.0, 3.0)], 2, {}, probe, setup, 0.0)
    assert sorted(metrics) == sorted(_names("per_layer"))
    assert metrics["engine.blend_ms"] == pytest.approx(300.0)
    assert metrics["engine.renderer_hit_ratio"] == 0.5
    assert summary["coverage"] == pytest.approx(0.3)


def test_source_digest_follows_the_python_sources(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    module = tmp_path / "src" / "mod.py"
    module.write_text("x = 1\n")
    first = report.source_digest(tmp_path)
    (tmp_path / "src" / "notes.txt").write_text("not code")
    assert report.source_digest(tmp_path) == first
    module.write_text("x = 2\n")
    assert report.source_digest(tmp_path) != first
