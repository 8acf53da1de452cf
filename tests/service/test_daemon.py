"""Integration tests of the service daemon.

Each test runs its own small daemon on a background thread.  Concurrency
inside one test is driven two ways: through real socket clients (protocol
coverage) and by scheduling ``handle_request`` coroutines straight onto
the daemon's loop (queue/fairness/supervision mechanics without socket
bookkeeping).  ``sleep`` requests keep the mechanics tests fast; render
and sweep requests cover the real execution paths once each.
"""

import asyncio
import threading
import time

import pytest

from repro.service.client import ServiceClient, scrape_http
from repro.service.daemon import ServiceConfig, ServiceDaemon
from repro.service.protocol import ServiceRequest


def start_daemon(**overrides):
    config = ServiceConfig(
        port=0,
        workers=overrides.pop("workers", 1),
        queue_limit=overrides.pop("queue_limit", 8),
        supervisor_interval_s=overrides.pop("supervisor_interval_s", 0.02),
        **overrides,
    )
    return ServiceDaemon(config).start_in_thread()


def submit_async(handle, kind, payload=None, client="anon"):
    """Schedule one request on the daemon loop; returns a waitable future."""
    request = ServiceRequest(kind=kind, payload=payload or {}, client=client)
    return asyncio.run_coroutine_threadsafe(
        handle.daemon.handle_request(request), handle.daemon._loop
    )


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestAdmissionControl:
    def test_overflow_rejected_with_retry_after(self):
        handle = start_daemon(workers=1, queue_limit=2)
        try:
            blocker = submit_async(handle, "sleep", {"seconds": 0.4})
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            fillers = [
                submit_async(handle, "sleep", {"seconds": 0.0}) for _ in range(2)
            ]
            reject = submit_async(handle, "sleep", {"seconds": 0.0}).result(5)
            assert not reject.ok
            assert reject.code == "queue_full"
            assert reject.retry_after_s and reject.retry_after_s > 0
            # The reject is immediate and terminal for that request; the
            # admitted ones still complete.
            assert blocker.result(5).ok
            assert all(f.result(5).ok for f in fillers)
            metrics = handle.daemon.metrics_snapshot()
            assert metrics["requests"]["rejected"] == 1
            assert metrics["queue"]["rejected"] == 1
        finally:
            handle.stop()
            handle.join()

    def test_client_retry_after_hint_succeeds(self):
        handle = start_daemon(workers=1, queue_limit=1)
        try:
            blocker = submit_async(handle, "sleep", {"seconds": 0.3})
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            filler = submit_async(handle, "sleep", {"seconds": 0.0})
            with handle.client(client="patient") as client:
                response = client.submit(
                    "sleep", {"seconds": 0.0}, retries=20, raise_on_error=True
                )
                assert response.ok
                assert client.backoffs >= 1  # it slept through a reject
            assert blocker.result(5).ok and filler.result(5).ok
            assert handle.daemon.metrics["rejected"] >= 1  # it was refused first
        finally:
            handle.stop()
            handle.join()


class TestFairness:
    def test_hog_cannot_starve_light_client(self):
        handle = start_daemon(workers=1, queue_limit=16)
        try:
            blocker = submit_async(handle, "sleep", {"seconds": 0.3}, client="warm")
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            hogs = [
                submit_async(handle, "sleep", {"seconds": 0.01}, client="hog")
                for _ in range(4)
            ]
            mice = [
                submit_async(handle, "sleep", {"seconds": 0.01}, client="mouse")
                for _ in range(2)
            ]
            assert blocker.result(5).ok
            hog_order = [f.result(5).meta["dispatch_index"] for f in hogs]
            mouse_order = [f.result(5).meta["dispatch_index"] for f in mice]
            # WFQ interleaving: blocker=0, then hog, mouse, hog, mouse,
            # hog, hog — the late-arriving light client overtakes the
            # hog's backlog instead of queueing behind all four.
            assert hog_order == [1, 3, 5, 6]
            assert mouse_order == [2, 4]
        finally:
            handle.stop()
            handle.join()


class TestSupervision:
    def test_crash_is_retried_exactly_once(self):
        handle = start_daemon(workers=1)
        try:
            response = submit_async(
                handle, "sleep", {"seconds": 0.0, "inject_crash_attempts": 1}
            ).result(10)
            assert response.ok
            assert response.meta["attempts"] == 2  # crashed once, retried once
            supervision = handle.daemon.supervisor.stats()
            assert supervision["restarts"] == 1
            assert supervision["retried"] == 1
            assert supervision["dropped"] == 0
            # The fleet healed: health is green again.
            assert wait_until(
                lambda: handle.daemon.healthz()["status"] == "healthy", timeout=5
            )
            events = [e["event"] for e in handle.daemon.events]
            assert "actor_restart" in events and "request_retried" in events
        finally:
            handle.stop()
            handle.join()

    def test_repeated_crash_fails_after_retry_budget(self):
        handle = start_daemon(workers=1)
        try:
            response = submit_async(
                handle, "sleep", {"seconds": 0.0, "inject_crash_attempts": 5}
            ).result(10)
            assert not response.ok
            assert response.code == "worker_crashed"
            supervision = handle.daemon.supervisor.stats()
            assert supervision["retried"] == 1  # exactly one retry, then fail
            assert supervision["dropped"] == 1
            # Later requests still work on the replacement actor.
            assert submit_async(handle, "sleep", {"seconds": 0.0}).result(5).ok
        finally:
            handle.stop()
            handle.join()

    def test_crash_mid_render_completes_with_correct_result(self):
        handle = start_daemon(workers=1)
        try:
            clean = submit_async(
                handle, "render", {"scene": "lego", "resolution_scale": 0.25}
            ).result(60)
            assert clean.ok
            crashed = submit_async(
                handle,
                "render",
                {
                    "scene": "lego",
                    "resolution_scale": 0.25,
                    "inject_crash_attempts": 1,
                },
            ).result(60)
            assert crashed.ok and crashed.meta["attempts"] == 2
            # The retried render is bit-identical to an undisturbed one.
            assert crashed.result["image_sha256"] == clean.result["image_sha256"]
            assert crashed.result["streaming_psnr"] == pytest.approx(
                clean.result["streaming_psnr"]
            )
        finally:
            handle.stop()
            handle.join()


class TestTimeouts:
    def test_slow_request_times_out_and_is_abandoned(self):
        handle = start_daemon(workers=1, request_timeout_s=0.15)
        try:
            response = submit_async(handle, "sleep", {"seconds": 0.6}).result(5)
            assert not response.ok
            assert response.code == "timeout"
            # The actor finishes the work later; the completion is counted
            # as abandoned, not delivered.
            assert wait_until(lambda: handle.daemon.metrics["abandoned"] == 1)
            assert handle.daemon.metrics["completed"] == 0
        finally:
            handle.stop()
            handle.join()


class TestShutdown:
    def test_graceful_shutdown_drains_queue(self):
        handle = start_daemon(workers=1, queue_limit=8)
        try:
            blocker = submit_async(handle, "sleep", {"seconds": 0.2})
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            queued = [
                submit_async(handle, "sleep", {"seconds": 0.02}) for _ in range(3)
            ]
            assert wait_until(lambda: len(handle.daemon.queue) == 3)
            handle.stop(drain=True)
            # Every admitted request completes despite the stop.
            assert blocker.result(10).ok
            assert all(f.result(10).ok for f in queued)
        finally:
            handle.join()
        daemon = handle.daemon
        assert daemon.metrics["completed"] == 4
        assert daemon.metrics["failed"] == 0
        assert len(daemon.queue) == 0 and daemon._in_flight == 0

    def test_draining_daemon_rejects_new_work(self):
        handle = start_daemon(workers=1)
        try:
            blocker = submit_async(handle, "sleep", {"seconds": 0.3})
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            handle.stop(drain=True)
            assert wait_until(lambda: handle.daemon.draining)
            late = submit_async(handle, "sleep", {"seconds": 0.0}).result(5)
            assert not late.ok and late.code == "draining"
            assert late.retry_after_s is not None
            assert blocker.result(5).ok
        finally:
            handle.join()


class TestTelemetry:
    def test_metrics_match_session_last_execution(self):
        handle = start_daemon(workers=1)
        try:
            response = submit_async(
                handle,
                "sweep",
                {
                    "base": {"scene": "lego", "resolution_scale": 0.25},
                    "grid": {"num_hfu": [2, 4]},
                },
            ).result(120)
            assert response.ok
            assert response.result["execution"] is not None
            metrics = handle.daemon.metrics_snapshot()
            actor = handle.daemon.actors[0]
            assert actor.session is not None
            # /metrics surfaces exactly the session's last execution report.
            assert metrics["execution"] == actor.session.last_execution.to_dict()
            assert metrics["execution"]["specs"] == 2
            # Engine counters in /metrics are the shared render service's.
            assert metrics["engine"] == handle.daemon.service.stats()
        finally:
            handle.stop()
            handle.join()

    def test_http_scrape_healthz_and_metrics(self):
        handle = start_daemon(workers=2)
        try:
            assert submit_async(handle, "sleep", {"seconds": 0.0}).result(5).ok
            health = scrape_http(handle.address, "/healthz")
            assert health["status"] == "healthy"
            assert health["actors_alive"] == 2
            metrics = scrape_http(handle.address, "/metrics")
            assert metrics["requests"]["completed"] == 1
            assert metrics["queue"]["max_depth"] == 8
            assert isinstance(metrics["shm"]["leaked_segments"], list)
            with pytest.raises(Exception):
                scrape_http(handle.address, "/nope")
        finally:
            handle.stop()
            handle.join()


class TestProtocolOverSockets:
    def test_render_and_control_round_trip(self):
        handle = start_daemon(workers=1)
        try:
            with handle.client(client="itest", timeout=120) as client:
                assert client.ping()["pong"] is True
                first = client.render("lego", resolution_scale=0.25)
                second = client.render("lego", resolution_scale=0.25)
                assert first.ok and second.ok
                # Deterministic engine: identical request, identical image.
                assert (
                    first.result["image_sha256"] == second.result["image_sha256"]
                )
                assert client.health()["status"] == "healthy"
                assert client.metrics()["requests"]["completed"] == 2
        finally:
            handle.stop()
            handle.join()

    def test_bad_request_gets_error_not_disconnect(self):
        handle = start_daemon(workers=1)
        try:
            with handle.client() as client:
                client._sock.sendall(b"this is not json\n")
                import json

                line = client._file.readline()
                message = json.loads(line)
                assert message["ok"] is False
                assert message["code"] == "bad_request"
                # The connection survives and serves the next request.
                assert client.ping()["pong"] is True
        finally:
            handle.stop()
            handle.join()

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        handle = start_daemon(workers=1, unix_path=path)
        try:
            assert handle.address == ("unix", path)
            with handle.client(client="unix") as client:
                assert client.submit("sleep", {"seconds": 0.0}).ok
            assert scrape_http(handle.address, "/healthz")["status"] == "healthy"
        finally:
            handle.stop()
            handle.join()


class TestTrajectoryRequests:
    def test_trajectory_round_trip_reports_frame_telemetry(self):
        handle = start_daemon(workers=1)
        try:
            with handle.client(client="traj", timeout=120) as client:
                response = client.trajectory(
                    scene="lego", path="orbit", frames=16, resolution_scale=0.25
                )
                assert response.ok, response.error
                result = response.result
                assert result["label"] == "lego/orbitx16"
                assert result["frames"] == 16
                assert len(result["image_checksums"]) == 16
                assert result["metrics"]["frames"] == 16
                assert result["metrics"]["mean_frame_ms"] > 0.0
                assert result["summary"] == {"frames": 16}
                # A repeated-pose trajectory renders the same frame three
                # times; the engine's last-frame telemetry names the path.
                from repro.scenes.registry import trajectory_cameras

                pose = trajectory_cameras(
                    "lego", "orbit", 4, resolution_scale=0.25
                )[0]
                repeated = client.trajectory(
                    scene="lego",
                    path=[
                        {
                            "rotation": pose.rotation.reshape(-1).tolist(),
                            "translation": pose.translation.tolist(),
                            "width": pose.width,
                            "height": pose.height,
                            "fx": pose.fx,
                            "fy": pose.fy,
                        }
                    ]
                    * 3,
                )
                assert repeated.ok, repeated.error
                assert repeated.result["path"] == "custom"
                checksums = repeated.result["image_checksums"]
                assert checksums[0] == checksums[1] == checksums[2]
                engine = client.metrics()["engine"]
                assert "temporal" not in engine
                assert engine["last_frame"]["path"] == "frame"
                assert set(engine["last_frame"]["stages_s"]) == {
                    "prepare", "filter", "blend", "account"
                }
        finally:
            handle.stop()
            handle.join()

    def test_trajectory_spec_object_and_fair_cost(self):
        from repro.api.spec import TrajectorySpec
        from repro.service.protocol import ServiceRequest

        spec = TrajectorySpec(scene="lego", path="dolly", frames=4, resolution_scale=0.25)
        request = ServiceRequest(kind="trajectory", payload={"spec": spec.to_dict()})
        assert ServiceDaemon._cost_of(request) == 4.0
        handle = start_daemon(workers=1)
        try:
            with handle.client(client="traj", timeout=120) as client:
                response = client.trajectory(spec)
                assert response.ok, response.error
                assert response.result["path"] == "dolly"
                with pytest.raises(TypeError, match="not both"):
                    client.trajectory(spec, frames=8)
        finally:
            handle.stop()
            handle.join()


class TestDegradation:
    def test_overload_downshifts_resolution_scale(self):
        handle = start_daemon(workers=1, degrade_depth=0)
        try:
            response = submit_async(
                handle, "render", {"scene": "lego", "resolution_scale": 0.5}
            ).result(60)
            assert response.ok
            degraded = response.meta["degraded"]
            assert degraded["resolution_scale"] == pytest.approx(0.25)
            assert degraded["requested_resolution_scale"] == pytest.approx(0.5)
            # The render actually ran at the downshifted scale.
            assert response.result["resolution_scale"] == pytest.approx(0.25)
            assert handle.daemon.metrics["degraded"] == 1
        finally:
            handle.stop()
            handle.join()

    def test_overload_downshifts_trajectory_resolution_scale(self):
        handle = start_daemon(workers=1, degrade_depth=0)
        try:
            response = submit_async(
                handle,
                "trajectory",
                {"spec": {"scene": "lego", "path": "dolly", "frames": 2,
                          "resolution_scale": 0.5}},
            ).result(120)
            assert response.ok
            degraded = response.meta["degraded"]
            assert degraded["resolution_scale"] == pytest.approx(0.25)
            assert response.result["resolution_scale"] == pytest.approx(0.25)
        finally:
            handle.stop()
            handle.join()

    def test_crash_retried_request_keeps_first_dispatch_scale(self):
        # Regression: degradation used to be re-evaluated on every
        # dispatch, so a crash-retried request (re-admitted front-of-queue
        # by the supervisor) had its resolution_scale halved a second time
        # and metrics["degraded"] double-counted.
        handle = start_daemon(workers=1, degrade_depth=0)
        try:
            response = submit_async(
                handle,
                "render",
                {
                    "scene": "lego",
                    "resolution_scale": 0.5,
                    "inject_crash_attempts": 1,
                },
            ).result(60)
            assert response.ok
            assert response.meta["attempts"] == 2  # crashed once, retried
            degraded = response.meta["degraded"]
            # The retry renders at the FIRST dispatch's scale (0.5 -> 0.25),
            # not a twice-degraded 0.125.
            assert degraded["resolution_scale"] == pytest.approx(0.25)
            assert response.result["resolution_scale"] == pytest.approx(0.25)
            assert handle.daemon.metrics["degraded"] == 1
        finally:
            handle.stop()
            handle.join()

    def test_no_degradation_below_threshold(self):
        handle = start_daemon(workers=1, degrade_depth=4)
        try:
            response = submit_async(
                handle, "render", {"scene": "lego", "resolution_scale": 0.25}
            ).result(60)
            assert response.ok
            assert "degraded" not in response.meta
        finally:
            handle.stop()
            handle.join()


class TestDegradedResultCaching:
    """A queue-degraded result must never be cached under the undegraded
    spec's hash: the daemon rewrites the payload spec *before* the actor
    parses it, so the store keys on the spec that actually rendered."""

    def test_degraded_trajectory_caches_under_degraded_key_only(self, tmp_path):
        from repro.api.spec import TrajectorySpec
        from repro.api.store import ResultStore

        cache_dir = str(tmp_path / "store")
        handle = start_daemon(workers=1, degrade_depth=0, cache_dir=cache_dir)
        try:
            response = submit_async(
                handle,
                "trajectory",
                {"spec": {"scene": "lego", "path": "dolly", "frames": 2,
                          "resolution_scale": 0.5}},
            ).result(120)
            assert response.ok
            assert response.meta["degraded"]["resolution_scale"] == pytest.approx(0.25)
        finally:
            handle.stop()
            handle.join()
        store = ResultStore(cache_dir)
        requested = TrajectorySpec(
            scene="lego", path="dolly", frames=2, resolution_scale=0.5
        )
        degraded = requested.with_options(resolution_scale=0.25)
        assert store.get(degraded) is not None
        assert store.get(requested) is None

    def test_degraded_sweep_caches_under_degraded_key_only(self, tmp_path):
        from repro.api.spec import ExperimentSpec, sweep
        from repro.api.store import ResultStore

        cache_dir = str(tmp_path / "store")
        handle = start_daemon(workers=1, degrade_depth=0, cache_dir=cache_dir)
        try:
            response = submit_async(
                handle,
                "sweep",
                {"base": {"scene": "lego", "resolution_scale": 0.5},
                 "grid": {"num_hfu": [2]}},
            ).result(120)
            assert response.ok
        finally:
            handle.stop()
            handle.join()
        store = ResultStore(cache_dir)
        requested = sweep(
            ExperimentSpec(scene="lego", resolution_scale=0.5), num_hfu=[2]
        )[0]
        degraded = sweep(
            ExperimentSpec(scene="lego", resolution_scale=0.25), num_hfu=[2]
        )[0]
        assert store.get(degraded) is not None
        assert store.get(requested) is None


class TestJournalResume:
    def test_hard_stop_resumes_in_flight_work(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        first = start_daemon(workers=1, journal_dir=journal_dir)
        try:
            # One request mid-execution (too slow to finish before the
            # 2s actor join timeout) and one still queued.
            submit_async(first, "sleep", {"seconds": 10.0})
            assert wait_until(lambda: first.daemon._in_flight == 1)
            submit_async(first, "sleep", {"seconds": 0.02})
            assert wait_until(lambda: len(first.daemon.queue) == 1)
            assert len(first.daemon.journal) == 2
        finally:
            first.stop(drain=False)
            first.join()
        assert len(first.daemon.journal) == 2  # hard stop loses nothing

        second = start_daemon(workers=2, journal_dir=journal_dir)
        try:
            assert second.daemon.metrics["resumed"] == 2
            events = [e["event"] for e in second.daemon.events]
            assert "journal_resumed" in events
            # The short resumed request completes and leaves the journal;
            # the long one is back in flight.
            assert wait_until(lambda: len(second.daemon.journal) == 1, timeout=10)
            assert second.daemon._in_flight >= 1
        finally:
            second.stop(drain=False)
            second.join()
