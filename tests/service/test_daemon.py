"""Integration tests of the service daemon.

Each test runs its own small daemon on a background thread.  Concurrency
inside one test is driven two ways: through real socket clients (protocol
coverage) and by scheduling ``handle_request`` coroutines straight onto
the daemon's loop (queue/fairness/supervision mechanics without socket
bookkeeping).  ``sleep`` requests keep the mechanics tests fast; render
and sweep requests cover the real execution paths once each.
"""

import asyncio
import time

import pytest

from repro.chaos import FaultPlan, FaultRule
from repro.service.client import scrape_http
from repro.service.daemon import ServiceConfig, ServiceDaemon
from repro.service.protocol import ServiceRequest
from repro.service.supervisor import MAX_RETRIES


def start_daemon(**overrides):
    config = ServiceConfig(
        port=0,
        workers=overrides.pop("workers", 1),
        queue_limit=overrides.pop("queue_limit", 8),
        **overrides,
    )
    return ServiceDaemon(config).start_in_thread()


def submit_async(handle, kind, payload=None, client="anon", **fields):
    """Schedule one request on the daemon loop; returns a waitable future."""
    request = ServiceRequest(kind=kind, payload=payload or {}, client=client, **fields)
    return asyncio.run_coroutine_threadsafe(
        handle.daemon.handle_request(request), handle.daemon._loop
    )


def on_loop(handle, call):
    """Run ``call()`` on the daemon's loop thread and return its result."""

    async def run():
        return call()

    return asyncio.run_coroutine_threadsafe(run(), handle.daemon._loop).result(5)


def unbalanced(daemon):
    """The scopes whose books do not balance.

    Every admitted request is settled exactly once or still pending, so
    ``accepted + resumed == completed + failed + pending`` must hold
    daemon-wide and for every client and kind.
    """
    pending = list(daemon._pending.values())
    scopes = [("daemon", daemon.metrics, pending)]
    for attr, table in (("client", daemon.per_client), ("kind", daemon.per_kind)):
        for name, counters in table.items():
            mine = [r for r in pending if getattr(r.request, attr) == name]
            scopes.append((f"{attr} {name}", counters, mine))
    return [
        f"{scope}: {counters} with {len(waiting)} pending"
        for scope, counters, waiting in scopes
        if counters["accepted"] + counters.get("resumed", 0)
        != counters["completed"] + counters["failed"] + len(waiting)
    ]


def crash_plan(every_nth, max_fires):
    """A plan whose only fault kills the actor that receives a request."""
    return FaultPlan(
        rules=[FaultRule("actor.crash", every_nth=every_nth, max_fires=max_fires)]
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
        handle = start_daemon(workers=1, chaos=crash_plan(every_nth=1, max_fires=1))
        try:
            response = submit_async(handle, "sleep", {"seconds": 0.0}).result(10)
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
        handle = start_daemon(workers=1, chaos=crash_plan(every_nth=1, max_fires=2))
        try:
            response = submit_async(handle, "sleep", {"seconds": 0.0}).result(10)
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

    def test_crashing_kind_costs_its_retry_budget_and_keeps_flowing(self):
        # Every attempt of the first requests crashes: each is answered
        # worker_crashed after MAX_RETRIES + 1 attempts, nothing is refused,
        # and the next request of the same kind is admitted and run.
        attempts = MAX_RETRIES + 1
        crashing = 3
        handle = start_daemon(
            workers=1, chaos=crash_plan(every_nth=1, max_fires=crashing * attempts)
        )
        try:
            for _ in range(crashing):
                response = submit_async(handle, "sleep", {"seconds": 0.0}).result(10)
                assert response.code == "worker_crashed"
            assert submit_async(handle, "sleep", {"seconds": 0.0}).result(5).ok
            supervision = handle.daemon.supervisor.stats()
            assert supervision["restarts"] == crashing * attempts
            assert supervision["retried"] == crashing * MAX_RETRIES
            assert supervision["dropped"] == crashing
            metrics = handle.daemon.metrics
            assert (metrics["rejected"], metrics["breaker_rejected"]) == (0, 0)
            assert handle.daemon.per_kind["sleep"]["failed"] == crashing
            assert handle.daemon.per_kind["sleep"]["completed"] == 1
            assert wait_until(
                lambda: handle.daemon.healthz()["status"] == "healthy", timeout=5
            )
        finally:
            handle.stop()
            handle.join()

    def test_crash_mid_render_completes_with_correct_result(self):
        # Every second dispatch crashes, once: the clean render (first)
        # runs, the second request's first dispatch dies, its retry runs.
        handle = start_daemon(workers=1, chaos=crash_plan(every_nth=2, max_fires=1))
        try:
            clean = submit_async(
                handle, "render", {"scene": "lego", "resolution_scale": 0.25}
            ).result(60)
            assert clean.ok
            crashed = submit_async(
                handle, "render", {"scene": "lego", "resolution_scale": 0.25}
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


class TestBalance:
    """Each terminal path counts its request exactly once, for the daemon,
    the client and the kind: ``accepted + resumed == completed + failed +
    pending`` after every one of them."""

    def test_timeout(self):
        handle = start_daemon(workers=1, request_timeout_s=0.15)
        try:
            response = submit_async(
                handle, "sleep", {"seconds": 0.6}, client="slow"
            ).result(5)
            assert response.code == "timeout"
            assert on_loop(handle, lambda: unbalanced(handle.daemon)) == []
            assert handle.daemon.per_client["slow"]["failed"] == 1
            # The actor's late completion is abandoned, not counted again.
            assert wait_until(lambda: handle.daemon.metrics["abandoned"] == 1)
            assert on_loop(handle, lambda: unbalanced(handle.daemon)) == []
            metrics = handle.daemon.metrics
            assert (metrics["failed"], metrics["timeouts"]) == (1, 1)
            assert metrics["completed"] == 0
        finally:
            handle.stop()
            handle.join()

    def test_deadline_missed_while_queued(self):
        handle = start_daemon(workers=1)
        try:
            blocker = submit_async(handle, "sleep", {"seconds": 0.4}, client="busy")
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            # Its awaiter gives up at the deadline...
            late = submit_async(
                handle, "sleep", {"seconds": 0.0}, client="late", deadline_s=0.05
            ).result(5)
            assert late.code == "deadline_exceeded"
            # ...and a record nobody awaits is shed by the dispatcher.
            shed = on_loop(
                handle,
                lambda: handle.daemon.admit(
                    ServiceRequest(kind="sleep", client="shed", deadline_s=0.05)
                ),
            )
            assert blocker.result(5).ok
            assert wait_until(shed.future.done)
            assert shed.future.result().code == "deadline_exceeded"
            assert on_loop(handle, lambda: unbalanced(handle.daemon)) == []
            metrics = handle.daemon.metrics
            assert (metrics["failed"], metrics["deadline_exceeded"]) == (2, 2)
            assert handle.daemon.per_client["late"]["failed"] == 1
        finally:
            handle.stop()
            handle.join()

    @pytest.mark.parametrize("fate", ["queue_full", "deadline_exceeded", "timeout"])
    def test_request_that_never_runs_leaves_its_kind_runnable(self, fate):
        """A render refused at admission, shed by its deadline or abandoned
        while queued is settled once, and the next render is run."""
        handle = start_daemon(
            workers=1,
            queue_limit=1 if fate == "queue_full" else 8,
            request_timeout_s=0.2 if fate == "timeout" else 300.0,
        )
        try:
            blocker = submit_async(handle, "sleep", {"seconds": 0.5})
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            if fate == "queue_full":
                submit_async(handle, "sleep", {"seconds": 0.0})
                assert wait_until(lambda: len(handle.daemon.queue) == 1)
            deadline = {"deadline_s": 0.05} if fate == "deadline_exceeded" else {}
            refused = submit_async(
                handle, "render", {"scene": "no-such-scene"}, **deadline
            ).result(5)
            assert refused.code == fate  # it never runs
            blocker.result(5)
            assert wait_until(lambda: handle.daemon._in_flight == 0)
            late = submit_async(handle, "render", {"scene": "no-such-scene"}).result(10)
            assert late.code == "evaluation_failed"  # admitted and run
            assert handle.daemon.healthz()["status"] == "healthy"
            assert on_loop(handle, lambda: unbalanced(handle.daemon)) == []
        finally:
            handle.stop()
            handle.join()

    def test_hard_stop_with_queued_work(self, tmp_path):
        handle = start_daemon(workers=1, journal_dir=str(tmp_path / "journal"))
        try:
            submit_async(handle, "sleep", {"seconds": 0.3}, client="busy")
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            for request_id in ("q1", "q2"):
                submit_async(
                    handle, "sleep", {"seconds": 0.0}, client="queued", id=request_id
                )
            assert wait_until(lambda: len(handle.daemon.queue) == 2)
        finally:
            handle.stop(drain=False)
            handle.join()
        daemon = handle.daemon
        assert unbalanced(daemon) == []
        assert daemon.per_client["queued"]["failed"] == 2
        assert {daemon._responses[i].code for i in ("q1", "q2")} == {"draining"}
        # Both stay journaled: the next start resumes them.
        assert {"q1", "q2"} <= {entry["id"] for entry in daemon.journal.pending()}

    def test_crash_past_retry_budget(self):
        handle = start_daemon(workers=1, chaos=crash_plan(every_nth=1, max_fires=2))
        try:
            response = submit_async(
                handle, "sleep", {"seconds": 0.0}, client="crashy"
            ).result(10)
            assert response.code == "worker_crashed"
            assert on_loop(handle, lambda: unbalanced(handle.daemon)) == []
            assert handle.daemon.per_kind["sleep"]["failed"] == 1
        finally:
            handle.stop()
            handle.join()

    def test_evaluation_failure(self):
        handle = start_daemon(workers=1)
        try:
            response = submit_async(
                handle, "render", {"scene": "no-such-scene"}, client="typo"
            ).result(10)
            assert response.code == "evaluation_failed"
            assert on_loop(handle, lambda: unbalanced(handle.daemon)) == []
            assert handle.daemon.per_client["typo"]["failed"] == 1
            # An evaluation error is answered by the live actor: not a crash.
            assert handle.daemon.supervisor.restarts == 0
            assert handle.daemon.supervisor.retried == 0
        finally:
            handle.stop()
            handle.join()

    def test_render_with_a_bad_voxel_size_or_scale_fails(self):
        handle = start_daemon(workers=1)
        bad = [
            {"voxel_size": -1.0},
            {"voxel_size": 0.0},
            {"voxel_size": float("nan")},
            {"voxel_size": float("inf")},
            {"resolution_scale": 0.0},
            {"resolution_scale": -0.5},
            {"resolution_scale": float("nan")},
        ]
        try:
            for fields in bad:
                response = submit_async(
                    handle, "render", {"scene": "lego", "resolution_scale": 0.25, **fields}
                ).result(30)
                assert response.code == "evaluation_failed", fields
                assert response.result is None, fields
                field = next(iter(fields))
                assert f"{field} must be" in response.error, fields
            assert on_loop(handle, lambda: unbalanced(handle.daemon)) == []
            assert handle.daemon.per_kind["render"]["failed"] == len(bad)
        finally:
            handle.stop()
            handle.join()

    def test_journal_resume(self, tmp_path):
        from repro.service.supervisor import Journal

        journal = Journal(tmp_path / "journal")
        for request_id in ("r1", "r2"):
            request = ServiceRequest(
                kind="sleep", payload={"seconds": 0.0}, client="back", id=request_id
            )
            journal.record(request, accepted_at=1.0)
        handle = start_daemon(workers=1, journal_dir=str(tmp_path / "journal"))
        try:
            daemon = handle.daemon
            assert wait_until(lambda: daemon.metrics["completed"] == 2)
            assert on_loop(handle, lambda: unbalanced(daemon)) == []
            assert (daemon.metrics["accepted"], daemon.metrics["resumed"]) == (0, 2)
            assert daemon.per_client["back"]["resumed"] == 2
            # Settled resumed work leaves the journal for good.
            assert len(daemon.journal) == 0
        finally:
            handle.stop()
            handle.join()

    @staticmethod
    def journal_deadline_request(tmp_path, seconds, deadline_s, age_s):
        """Journal one ``sleep`` admitted ``age_s`` wall-clock seconds ago."""
        from repro.service.supervisor import Journal, now

        request = ServiceRequest(
            kind="sleep", payload={"seconds": seconds}, client="late",
            id="d1", deadline_s=deadline_s,
        )
        Journal(tmp_path / "journal").record(request, accepted_at=now() - age_s)
        return start_daemon(workers=1, journal_dir=str(tmp_path / "journal"))

    def test_resumed_request_past_its_deadline_is_shed_unrun(self, tmp_path):
        handle = self.journal_deadline_request(tmp_path, 0.0, deadline_s=0.5, age_s=10.0)
        try:
            daemon = handle.daemon
            assert wait_until(lambda: daemon.metrics["failed"] == 1)
            assert daemon.metrics["deadline_exceeded"] == 1
            assert daemon.metrics["completed"] == 0
            assert daemon.metrics["resumed"] == 1
            assert daemon._dispatch_count == 0  # shed before dispatch
            assert on_loop(handle, lambda: unbalanced(daemon)) == []
            assert len(daemon.journal) == 0
        finally:
            handle.stop()
            handle.join()

    def test_resumed_request_keeps_only_its_remaining_deadline(self, tmp_path):
        handle = self.journal_deadline_request(tmp_path, 1.0, deadline_s=30.0, age_s=10.0)
        try:
            daemon = handle.daemon
            left = on_loop(
                handle, lambda: daemon._pending["d1"].deadline_at - time.monotonic()
            )
            assert 15.0 < left <= 20.0
            assert wait_until(lambda: daemon.metrics["completed"] == 1)
            assert daemon.metrics["failed"] == 0
            assert on_loop(handle, lambda: unbalanced(daemon)) == []
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
    def test_sweep_response_carries_its_execution_report(self):
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
            actor = handle.daemon.actors[0]
            assert actor.session is not None
            # The response carries exactly its own sweep's execution report.
            execution = response.result["execution"]
            assert execution == actor.session.last_execution.to_dict()
            assert execution["specs"] == 2
            metrics = handle.daemon.metrics_snapshot()
            assert "execution" not in metrics
            # Engine counters in /metrics are the shared render service's.
            assert metrics["engine"] == handle.daemon.service.stats()
        finally:
            handle.stop()
            handle.join()

    def test_metrics_count_store_entries_healed(self, tmp_path):
        """A corrupted store entry that a later sweep reads back counts as healed."""
        plan = FaultPlan(
            seed=5, rules=[FaultRule("store.corrupt_entry", every_nth=1, max_fires=1)]
        )
        handle = start_daemon(workers=1, cache_dir=str(tmp_path / "store"), chaos=plan)
        payload = {
            "base": {"scene": "lego", "resolution_scale": 0.25},
            "grid": {"num_hfu": [2]},
        }
        try:
            first = submit_async(handle, "sweep", payload).result(120)
            second = submit_async(handle, "sweep", payload).result(120)
            assert first.ok and second.ok
            assert second.result["metrics"] == first.result["metrics"]
            store = handle.daemon.metrics_snapshot()["store"]
            assert (store["healed"], store["hits"], store["entries"]) == (1, 0, 1)
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
            # Nothing increments these two any more, but perfbench's
            # cold-start probe (ColdStart.probe) reads both from the daemon.
            assert metrics["requests"]["breaker_rejected"] == 0
            assert metrics["requests"]["degraded"] == 0
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
                # Both are served by one context, built for the first.
                stages = first.result["telemetry"]["context_stages_s"]
                assert list(stages) == ["scene", "fit", "renderer", "streaming", "workload"]
                assert second.result["telemetry"]["context_stages_s"] == stages
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

    def test_out_of_range_sleep_is_a_bad_request(self):
        handle = start_daemon(workers=1)
        try:
            with handle.client() as client:
                import json

                for seconds in ("1e9", "NaN", "-1"):
                    client._sock.sendall(
                        b'{"kind": "sleep", "payload": {"seconds": %s}}\n'
                        % seconds.encode()
                    )
                    message = json.loads(client._file.readline())
                    assert message["code"] == "bad_request", message
                    assert "sleep seconds" in message["error"]
            # Rejected before admission: no queue slot, nothing counted.
            metrics = handle.daemon.metrics_snapshot()
            assert metrics["requests"]["accepted"] == 0
            assert metrics["queue"]["pushed"] == 0
        finally:
            handle.stop()
            handle.join()

    def test_non_finite_deadline_is_a_bad_request(self):
        handle = start_daemon(workers=1)
        try:
            with handle.client() as client:
                import json

                for deadline in ("NaN", "Infinity", '"nan"', "0"):
                    client._sock.sendall(
                        b'{"kind": "sleep", "deadline_s": %s}\n' % deadline.encode()
                    )
                    message = json.loads(client._file.readline())
                    assert message["code"] == "bad_request", message
                    assert "deadline_s" in message["error"]
            # Refused before admission: not journaled, queued or counted.
            metrics = handle.daemon.metrics_snapshot()
            assert metrics["requests"]["accepted"] == 0
            assert metrics["requests"]["failed"] == 0
            assert metrics["queue"]["pushed"] == 0
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


class TestBacklog:
    def test_backlogged_work_runs_as_requested(self, tmp_path):
        """A deep queue changes when work runs, never what it runs."""
        from repro.api.spec import ExperimentSpec, TrajectorySpec, sweep
        from repro.api.store import ResultStore

        cache_dir = str(tmp_path / "store")
        base = {"scene": "lego", "resolution_scale": 0.5}
        trajectory = {"scene": "lego", "path": "dolly", "frames": 2,
                      "resolution_scale": 0.5}
        handle = start_daemon(workers=1, queue_limit=16, cache_dir=cache_dir)
        try:
            blocker = submit_async(handle, "sleep", {"seconds": 1.0}, client="busy")
            assert wait_until(lambda: handle.daemon._in_flight == 1)
            fillers = [
                submit_async(handle, "sleep", {"seconds": 0.0}, client="hog")
                for _ in range(12)
            ]
            # Separate clients, so fair order runs the work while most of
            # the hog's backlog is still queued.
            work = [
                submit_async(handle, "render", dict(base), client="render"),
                submit_async(
                    handle, "sweep", {"base": dict(base), "grid": {"num_hfu": [2]}},
                    client="sweep",
                ),
                submit_async(
                    handle, "trajectory", {"spec": dict(trajectory)}, client="traj"
                ),
            ]
            assert wait_until(lambda: len(handle.daemon.queue) == 15)
            assert 15 > handle.daemon.config.queue_limit // 2
            assert blocker.result(5).ok
            render, swept, walked = [future.result(120) for future in work]
            assert all(future.result(5).ok for future in fillers)
        finally:
            handle.stop()
            handle.join()
        for response in (render, swept, walked):
            assert response.ok, response.error
            assert "degraded" not in response.meta
        assert render.result["resolution_scale"] == 0.5
        assert walked.result["resolution_scale"] == 0.5
        assert handle.daemon.metrics["degraded"] == 0
        # The sweep point and the trajectory are stored under the specs
        # that were sent.
        store = ResultStore(cache_dir)
        assert store.get(sweep(ExperimentSpec(**base), num_hfu=[2])[0]) is not None
        assert store.get(TrajectorySpec(**trajectory)) is not None


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
