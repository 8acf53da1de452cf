"""Wire-protocol trace replay against an embedded daemon."""

import pytest

from repro.api.session import Session
from repro.fleet.aggregate import fleet_costs, percentile, summarize_replay
from repro.fleet.clients import replay_trace
from repro.fleet.traces import RequestClass, generate_trace
from repro.service.daemon import ServiceConfig, ServiceDaemon


def frames_completed(report):
    """Frames the replay's successful events delivered."""
    return sum(outcome.frames for outcome in report.outcomes if outcome.ok)


def small_mixed_trace(seed=1):
    classes = [
        RequestClass(
            name="preview", kind="render", weight=4.0, scene="lego",
            resolution_scale=0.25, clients=2,
        ),
        RequestClass(
            name="walk", kind="trajectory", weight=1.0, scene="lego",
            resolution_scale=0.25, frames=2, path="dolly", clients=1,
        ),
        RequestClass(
            name="batch", kind="sweep", weight=1.0, scene="lego",
            resolution_scale=0.25, grid={"num_hfu": [2, 4]}, clients=1,
        ),
    ]
    return generate_trace(classes, duration_s=3.0, rate_hz=4.0, seed=seed)


class TestReplay:
    @pytest.fixture(scope="class")
    def replayed(self, tmp_path_factory):
        """One replay shared by the assertions below (daemons are costly)."""
        store = str(tmp_path_factory.mktemp("fleet-store"))
        trace = small_mixed_trace()
        daemon = ServiceDaemon(
            ServiceConfig(port=0, workers=2, queue_limit=32, cache_dir=store)
        )
        handle = daemon.start_in_thread()
        try:
            report = replay_trace(
                trace, handle.address, speed=3.0, retries=5, timeout=300.0
            )
        finally:
            handle.stop(drain=True)
            handle.join()
        return trace, report, store

    def test_every_event_completes_over_the_wire(self, replayed):
        trace, report, _ = replayed
        assert len(report.outcomes) == len(trace)
        assert report.completed == len(trace)
        assert report.failed == 0

    def test_mixed_kinds_all_served(self, replayed):
        trace, report, _ = replayed
        served = {outcome.kind for outcome in report.outcomes if outcome.ok}
        assert served == {"render", "trajectory", "sweep"}

    def test_summary_covers_every_class(self, replayed):
        trace, report, _ = replayed
        summary = summarize_replay(report, window_s=1.0)
        assert set(summary["classes"]) == {"preview", "walk", "batch"}
        overall = summary["overall"]
        assert overall["submitted"] == len(trace)
        assert overall["p50_s"] <= overall["p95_s"] <= overall["p99_s"]
        assert overall["throughput_rps"] == pytest.approx(len(trace) / 1.0)

    def test_frames_follow_request_kinds(self, replayed):
        trace, report, _ = replayed
        assert frames_completed(report) == pytest.approx(trace.frames())

    def test_metrics_snapshot_scraped(self, replayed):
        _, report, _ = replayed
        assert report.daemon_metrics["requests"]["completed"] >= len(report.outcomes)
        assert "kinds" in report.daemon_metrics

    def test_fleet_costs_scale_per_frame_figures(self, replayed):
        trace, report, store = replayed
        with Session(store=store) as session:
            costs = fleet_costs(trace.classes, report, session, window_s=1.0)
        assert {c.name for c in costs.classes} == {"preview", "walk", "batch"}
        assert costs.frames == pytest.approx(frames_completed(report))
        assert costs.offered_fps == pytest.approx(frames_completed(report) / 1.0)
        assert costs.required_bandwidth_bytes > 0
        assert costs.energy_j > 0
        preview = next(c for c in costs.classes if c.name == "preview")
        assert preview.required_bandwidth_bytes == pytest.approx(
            preview.dram_bytes_per_frame * preview.offered_fps
        )


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 1.0) == 5.0
