"""Trajectory workloads: one render call per frame, results from their own frames."""

import hashlib

import numpy as np
import pytest

from repro.api import ResultStore, Session, TrajectorySpec
from repro.engine.service import RenderService
from repro.scenes.registry import trajectory_cameras

STAGES = {"prepare", "filter", "blend", "account"}


def test_run_trajectory_reports_its_own_frames_on_a_shared_service(monkeypatch, tmp_path):
    # The daemon's actors share one RenderService; a trajectory another
    # session renders between this run's frames and its summary must not
    # leak into this run's result (or into the store under this spec's key).
    service = RenderService()
    first = Session(service=service, store=tmp_path)
    second = Session(service=service)
    mine = TrajectorySpec(scene="lego", path="dolly", frames=2, resolution_scale=0.25)
    other = TrajectorySpec(
        scene="lego",
        path="orbit",
        frames=5,
        resolution_scale=0.25,
        config={"streaming_kernel": "reference"},
    )
    render_trajectory = Session.render_trajectory

    def interleaved(self, spec):
        responses = render_trajectory(self, spec)
        if self is first:
            second.run_trajectory(other)
        return responses

    monkeypatch.setattr(Session, "render_trajectory", interleaved)
    result = first.run_trajectory(mine)
    monkeypatch.undo()

    assert result.metrics["frames"] == 2
    assert result.payload["summary"] == {"frames": 2}
    per_frame = result.payload["per_frame"]
    assert [frame["path"] for frame in per_frame] == ["frame", "frame"]
    own = [float(np.abs(r.image).sum()) for r in first.render_trajectory(mine)]
    assert result.payload["image_checksums"] == own
    assert ResultStore(tmp_path).get(mine).metrics["frames"] == 2


def test_render_trajectory_hashes_the_model_once(monkeypatch):
    cameras = trajectory_cameras("lego", "dolly", 2, resolution_scale=0.25)
    spec = TrajectorySpec(scene="lego", path=[cameras[0], cameras[1], cameras[0]])
    calls = []
    blake2b = hashlib.blake2b

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return blake2b(*args, **kwargs)

    with Session() as session:
        monkeypatch.setattr(hashlib, "blake2b", counted)
        responses = session.render_trajectory(spec)
        assert len(calls) == 1
        monkeypatch.undo()
        assert len(responses) == 3
        np.testing.assert_array_equal(responses[0].image, responses[2].image)
        for response in responses:
            assert response.output.telemetry["path"] == "frame"
            assert set(response.output.telemetry["stages_s"]) == STAGES
        # The revisited pose reuses its prepared frame.
        renderer = session.streaming_renderer(
            session.scene_model("lego"), spec.streaming_config()
        )
        assert renderer.frame_cache.hits >= 1


def test_run_trajectory_summary_comes_from_its_frames(tmp_path):
    cameras = trajectory_cameras("lego", "dolly", 2, resolution_scale=0.25)
    spec = TrajectorySpec(scene="lego", path=[cameras[0], cameras[1], cameras[0]])
    with Session(store=tmp_path) as session:
        result = session.run_trajectory(spec)
        per_frame = result.payload["per_frame"]
        assert result.metrics["frames"] == 3
        assert [frame["path"] for frame in per_frame] == ["frame"] * 3
        for frame in per_frame:
            assert set(frame["stages_s"]) == STAGES
        seconds = [frame["seconds"] for frame in per_frame]
        assert result.metrics["total_seconds"] == pytest.approx(sum(seconds))
        assert result.metrics["mean_frame_ms"] == pytest.approx(
            1e3 * sum(seconds) / 3
        )
        checksums = result.payload["image_checksums"]
        assert len(checksums) == 3 and checksums[0] == checksums[2]
        # The last frame's telemetry is still published as the service gauge.
        assert session.service.stats()["last_frame"] == per_frame[-1]
        # A second run is served from the store without rendering.
        served = session.service.requests_served
        assert session.run_trajectory(spec).metrics == result.metrics
        assert session.service.requests_served == served


def test_trajectory_spec_has_no_render_options():
    # Scheduling changes no output bit, so it is not part of the spec or
    # of its store key.
    spec = TrajectorySpec(scene="lego", path="dolly", frames=2)
    assert "options" not in spec.to_dict()
    assert "options" not in spec.canonical_dict()
    with pytest.raises(ValueError, match="unknown trajectory field"):
        TrajectorySpec.from_dict({"scene": "lego", "options": {"tile_workers": 2}})


@pytest.mark.parametrize("scale", [0.0, -0.5, float("nan"), float("inf")])
def test_resolution_scale_must_be_positive_and_finite(scale):
    with pytest.raises(ValueError, match="resolution_scale must be"):
        TrajectorySpec(scene="lego", resolution_scale=scale)
