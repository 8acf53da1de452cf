"""Chaos fault-injection layer and end-to-end service hardening tests.

Unit coverage of the plan/injector machinery (determinism, cadence,
caps, the install/uninstall identity guard) plus integration coverage of
every hardening path the chaos layer exists to exercise: idempotent
reconnect-and-resend, end-to-end deadlines, wedged-actor quarantine, torn
journal writes and store faults.
"""

import errno
import json
import time

import pytest

from repro import chaos
from repro.chaos import (
    FAULT_POINTS,
    ChaosInjector,
    FaultPlan,
    FaultRule,
    build_injector,
)
from repro.service.client import ServiceClient, ServiceConnectionError
from repro.service.daemon import ServiceConfig, ServiceDaemon
from repro.service.protocol import ServiceRequest
from repro.service.supervisor import Journal


@pytest.fixture(autouse=True)
def no_leaked_injector():
    """Every test starts and ends with chaos uninstalled."""
    chaos.uninstall()
    yield
    chaos.uninstall()


def start_daemon(**overrides):
    config = ServiceConfig(
        port=0,
        workers=overrides.pop("workers", 1),
        queue_limit=overrides.pop("queue_limit", 8),
        **overrides,
    )
    return ServiceDaemon(config).start_in_thread()


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFaultPlan:
    def test_round_trips_through_dict_and_json(self, tmp_path):
        plan = FaultPlan(
            seed=9,
            rules=[
                FaultRule(point="actor.crash", every_nth=3),
                FaultRule(point="transport.drop_response", probability=0.5),
            ],
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.parse(json.dumps(plan.to_dict())) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.parse(str(path)) == plan
        assert len(plan) == 2
        assert plan.points() == ["actor.crash", "transport.drop_response"]

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultRule(point="actor.explode", every_nth=1)

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(point="actor.crash", probability=1.5)

    def test_rule_needs_a_firing_policy(self):
        with pytest.raises(ValueError, match="no firing policy"):
            FaultRule(point="actor.crash")

    def test_every_registered_point_documented(self):
        for point, description in FAULT_POINTS.items():
            assert "." in point and description


class TestChaosInjector:
    def test_same_plan_same_seed_fires_identically(self):
        plan = FaultPlan(
            seed=21,
            rules=[FaultRule(point="actor.crash", probability=0.3)],
        )
        a = ChaosInjector(plan)
        b = ChaosInjector(plan)
        sequence_a = [a.fire("actor.crash") is not None for _ in range(200)]
        sequence_b = [b.fire("actor.crash") is not None for _ in range(200)]
        assert sequence_a == sequence_b
        assert any(sequence_a) and not all(sequence_a)

    def test_different_seed_fires_differently(self):
        rules = [FaultRule(point="actor.crash", probability=0.3)]
        a = ChaosInjector(FaultPlan(seed=1, rules=rules))
        b = ChaosInjector(FaultPlan(seed=2, rules=rules))
        assert [a.fire("actor.crash") for _ in range(200)] != [
            b.fire("actor.crash") for _ in range(200)
        ]

    def test_every_nth_cadence_and_max_fires(self):
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule(point="actor.hang", every_nth=3, max_fires=2)],
        )
        injector = ChaosInjector(plan)
        fired = [injector.fire("actor.hang") is not None for _ in range(12)]
        # Fires on calls 3 and 6, then the cap stops calls 9 and 12.
        assert fired == [False, False, True, False, False, True] + [False] * 6
        assert injector.stats()["actor.hang"] == {"calls": 12, "fires": 2}
        assert injector.fired_points() == ["actor.hang"]

    def test_unmatched_point_counts_calls_only(self):
        injector = ChaosInjector(
            FaultPlan(seed=0, rules=[FaultRule(point="actor.crash", every_nth=1)])
        )
        assert injector.fire("store.enospc") is None
        assert injector.stats()["store.enospc"] == {"calls": 1, "fires": 0}

    def test_build_injector_forms(self):
        assert build_injector(None) is None
        assert build_injector(FaultPlan(seed=0, rules=[])) is None
        built = build_injector(
            {"seed": 3, "rules": [{"point": "actor.crash", "every_nth": 2}]}
        )
        assert isinstance(built, ChaosInjector)
        assert built.plan.seed == 3


class TestInstallUninstall:
    def test_disabled_fault_returns_none(self):
        assert chaos.installed() is None
        assert chaos.fault("actor.crash") is None

    def test_install_and_fault_round_trip(self):
        injector = ChaosInjector(
            FaultPlan(seed=0, rules=[FaultRule(point="actor.crash", every_nth=1)])
        )
        chaos.install(injector)
        assert chaos.installed() is injector
        rule = chaos.fault("actor.crash")
        assert rule is not None and rule.point == "actor.crash"
        chaos.uninstall()
        assert chaos.installed() is None

    def test_uninstall_identity_guard(self):
        # A daemon tearing down must not clobber a newer daemon's injector.
        old = ChaosInjector(
            FaultPlan(seed=0, rules=[FaultRule(point="actor.crash", every_nth=1)])
        )
        new = ChaosInjector(
            FaultPlan(seed=1, rules=[FaultRule(point="actor.hang", every_nth=1)])
        )
        chaos.install(old)
        chaos.install(new)
        chaos.uninstall(expected=old)  # stale teardown: no-op
        assert chaos.installed() is new
        chaos.uninstall(expected=new)
        assert chaos.installed() is None


class TestDeadlines:
    def test_request_validates_deadline(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ServiceRequest(kind="sleep", deadline_s=-1.0)
        wired = ServiceRequest(kind="sleep", deadline_s=2.5).to_wire()
        assert wired["deadline_s"] == 2.5
        assert "deadline_s" not in ServiceRequest(kind="sleep").to_wire()

    def test_expired_deadline_shed_from_queue(self):
        handle = start_daemon(workers=1)
        try:
            with handle.client(client="deadline") as client:
                blocker_client = handle.client(client="blocker")
                try:
                    import threading

                    blocker_done = []
                    blocker = threading.Thread(
                        target=lambda: blocker_done.append(
                            blocker_client.submit("sleep", {"seconds": 0.5})
                        )
                    )
                    blocker.start()
                    assert wait_until(lambda: handle.daemon._in_flight == 1)
                    response = client.submit(
                        "sleep", {"seconds": 0.0}, deadline_s=0.1
                    )
                    assert not response.ok
                    assert response.code == "deadline_exceeded"
                    blocker.join()
                    assert blocker_done[0].ok
                finally:
                    blocker_client.close()
            assert handle.daemon.metrics["deadline_exceeded"] == 1
        finally:
            handle.stop()
            handle.join()

    def test_generous_deadline_completes(self):
        handle = start_daemon(workers=1)
        try:
            with handle.client(client="ok") as client:
                response = client.submit("sleep", {"seconds": 0.0}, deadline_s=30.0)
                assert response.ok
        finally:
            handle.stop()
            handle.join()


class TestIdempotentResend:
    def _drop_plan(self, max_fires=1):
        return FaultPlan(
            seed=5,
            rules=[
                FaultRule(
                    point="transport.drop_response",
                    every_nth=1,
                    max_fires=max_fires,
                )
            ],
        )

    def test_dropped_response_resent_from_cache_without_reexecution(self):
        handle = start_daemon(workers=1, chaos=self._drop_plan())
        try:
            with handle.client(client="resend", reconnect=2) as client:
                response = client.submit("sleep", {"seconds": 0.01})
                assert response.ok
                assert client.resends == 1
            metrics = handle.daemon.metrics_snapshot()
            # Executed once, served twice: the resend hit the response
            # cache instead of re-running the work.
            assert metrics["requests"]["completed"] == 1
            assert metrics["requests"]["resends_served"] == 1
            assert metrics["response_cache"]["size"] == 1
        finally:
            handle.stop()
            handle.join()

    def test_torn_frame_detected_and_resent(self):
        plan = FaultPlan(
            seed=6,
            rules=[
                FaultRule(
                    point="transport.partial_write", every_nth=1, max_fires=1
                )
            ],
        )
        handle = start_daemon(workers=1, chaos=plan)
        try:
            with handle.client(client="torn", reconnect=2) as client:
                response = client.submit("sleep", {"seconds": 0.0})
                assert response.ok
                assert client.resends == 1
            assert handle.daemon.metrics["completed"] == 1
        finally:
            handle.stop()
            handle.join()

    def test_exhausted_budget_raises_typed_error_and_fails_fast(self):
        # Two drops against a budget of zero: the typed error carries the
        # request id, and the dead connection then fails fast instead of
        # hanging on a desynchronized stream.
        handle = start_daemon(workers=1, chaos=self._drop_plan(max_fires=2))
        try:
            with handle.client(client="unlucky", reconnect=0) as client:
                with pytest.raises(ServiceConnectionError) as excinfo:
                    client.submit("sleep", {"seconds": 0.0})
                assert excinfo.value.request_id.startswith("unlucky-")
                assert excinfo.value.client == "unlucky"
                started = time.monotonic()
                with pytest.raises(ServiceConnectionError):
                    client.submit("sleep", {"seconds": 0.0})
                assert time.monotonic() - started < 1.0  # fail fast, no hang
        finally:
            handle.stop()
            handle.join()


class TestSingleIdAcrossAdmissionRetries:
    def test_admission_retries_reuse_one_request_id(self):
        # Regression: submit used to mint a fresh id per resubmission, so
        # one logical request looked like N requests to the daemon.
        handle = start_daemon(workers=1, queue_limit=1)
        try:
            import threading

            blocker_client = handle.client(client="hog")
            filler_client = handle.client(client="hog2")
            try:
                results = []
                blocker = threading.Thread(
                    target=lambda: results.append(
                        blocker_client.submit("sleep", {"seconds": 0.4})
                    )
                )
                blocker.start()
                assert wait_until(lambda: handle.daemon._in_flight == 1)
                filler = threading.Thread(
                    target=lambda: results.append(
                        filler_client.submit("sleep", {"seconds": 0.0})
                    )
                )
                filler.start()
                assert wait_until(lambda: len(handle.daemon.queue) == 1)

                with handle.client(client="patient") as client:
                    seen_ids = []
                    original = client._roundtrip

                    def recording(request):
                        seen_ids.append(request.id)
                        return original(request)

                    client._roundtrip = recording
                    response = client.submit(
                        "sleep", {"seconds": 0.0}, retries=30
                    )
                    assert response.ok
                    assert client.backoffs >= 1  # it was rejected first
                    assert len(seen_ids) >= 2  # resubmitted at least once
                    assert len(set(seen_ids)) == 1  # ...under ONE id
                blocker.join()
                filler.join()
                assert all(r.ok for r in results)
            finally:
                blocker_client.close()
                filler_client.close()
        finally:
            handle.stop()
            handle.join()


class TestQuarantine:
    def test_wedged_actor_quarantined_and_replaced(self):
        # A sleep executes as one uninterruptible call with no heartbeats,
        # so with an aggressive watchdog it is indistinguishable from a
        # wedge: stall-flagged once, quarantined once, replaced in-slot.
        handle = start_daemon(
            workers=1,
            heartbeat_timeout_s=0.1,
            quarantine_after_s=0.25,
        )
        try:
            import threading

            done = []
            wedged_client = handle.client(client="wedged")
            try:
                wedged = threading.Thread(
                    target=lambda: done.append(
                        wedged_client.submit("sleep", {"seconds": 1.0})
                    )
                )
                wedged.start()
                assert wait_until(
                    lambda: handle.daemon.supervisor.quarantined == 1, timeout=5
                )
                health = handle.daemon.healthz()
                assert health["status"] == "degraded"
                assert health["quarantined"] == 1
                # Capacity is restored: the replacement serves new work
                # while the wedged thread is still sleeping.
                with handle.client(client="probe") as probe:
                    assert probe.submit("sleep", {"seconds": 0.0}).ok
                # The wedged request still completes and is delivered.
                wedged.join()
                assert done[0].ok
                # Once the wedged actor finishes it is retired, never
                # returned to dispatch, and health goes green again.
                assert wait_until(
                    lambda: not handle.daemon.quarantined_actors, timeout=5
                )
                assert wait_until(
                    lambda: handle.daemon.healthz()["status"] == "healthy",
                    timeout=5,
                )
                stats = handle.daemon.supervisor.stats()
                assert stats["quarantined"] == 1
                events = [e["event"] for e in handle.daemon.events]
                assert "actor_quarantined" in events
                assert "actor_unquarantined" in events
            finally:
                wedged_client.close()
        finally:
            handle.stop()
            handle.join()


class TestStallAccounting:
    def test_stall_counted_once_per_incident_with_recovery_reset(self):
        # Regression: the supervisor used to bump `stalled` on every sweep
        # while an actor was busy-stale, so one slow request inflated the
        # counter by hundreds.
        handle = start_daemon(
            workers=1,
            heartbeat_timeout_s=0.05,
            quarantine_after_s=30.0,  # stall, but never quarantine
        )
        try:
            import threading

            done = []
            slow_client = handle.client(client="slow")
            try:
                slow = threading.Thread(
                    target=lambda: done.append(
                        slow_client.submit("sleep", {"seconds": 0.4})
                    )
                )
                slow.start()
                # Many sweeps happen during the 0.4s sleep; one incident.
                assert wait_until(
                    lambda: handle.daemon.supervisor.stalled == 1, timeout=5
                )
                time.sleep(0.15)  # several more sweeps
                assert handle.daemon.supervisor.stalled == 1
                slow.join()
                assert done[0].ok
                # Recovery re-arms the flag: a second slow request is a
                # second incident.
                done.clear()
                slow2 = threading.Thread(
                    target=lambda: done.append(
                        slow_client.submit("sleep", {"seconds": 0.3})
                    )
                )
                slow2.start()
                assert wait_until(
                    lambda: handle.daemon.supervisor.stalled == 2, timeout=5
                )
                slow2.join()
                assert done[0].ok
                events = [e["event"] for e in handle.daemon.events]
                assert "actor_recovered" in events
            finally:
                slow_client.close()
        finally:
            handle.stop()
            handle.join()


class TestJournalTornWrite:
    def test_torn_journal_entry_healed_on_scan(self, tmp_path):
        plan = FaultPlan(
            seed=2,
            rules=[
                FaultRule(point="journal.torn_write", every_nth=1, max_fires=1)
            ],
        )
        chaos.install(build_injector(plan))
        root = tmp_path / "journal"
        journal = Journal(root)
        torn = ServiceRequest(kind="sleep", payload={"seconds": 0}, id="torn-1")
        intact = ServiceRequest(kind="sleep", payload={"seconds": 0}, id="ok-1")
        journal.record(torn, accepted_at=1.0)  # fault fires: half the JSON
        journal.record(intact, accepted_at=2.0)
        raw = (root / "req-torn-1.json").read_text()
        with pytest.raises(json.JSONDecodeError):
            json.loads(raw)
        # pending() degrades to losing the torn entry, never to crashing.
        assert [e["id"] for e in journal.pending()] == ["ok-1"]
        assert (root / "req-torn-1.json.corrupt").exists()
        assert len(journal) == 1


class TestStoreFaults:
    def _store(self, tmp_path):
        from repro.api import ExperimentResult, ExperimentSpec, ResultStore

        store = ResultStore(tmp_path / "cache")
        spec = ExperimentSpec(scene="lego")
        result = ExperimentResult(
            name="point",
            title="t",
            text="b",
            metrics={"speedup": 1.0},
        )
        return store, spec, result

    def test_enospc_surfaces_as_oserror(self, tmp_path):
        store, spec, result = self._store(tmp_path)
        plan = FaultPlan(
            seed=3,
            rules=[FaultRule(point="store.enospc", every_nth=1, max_fires=1)],
        )
        chaos.install(build_injector(plan))
        with pytest.raises(OSError) as excinfo:
            store.put(spec, result)
        assert excinfo.value.errno == errno.ENOSPC
        # The fault was one-shot; the store works again afterwards.
        store.put(spec, result)
        assert store.get(spec) is not None

    def test_corrupt_entry_becomes_miss_and_heals(self, tmp_path):
        store, spec, result = self._store(tmp_path)
        plan = FaultPlan(
            seed=4,
            rules=[
                FaultRule(point="store.corrupt_entry", every_nth=1, max_fires=1)
            ],
        )
        chaos.install(build_injector(plan))
        store.put(spec, result)  # fault truncates the entry post-write
        entry_path = store.path(spec)
        with pytest.raises(json.JSONDecodeError):
            json.loads(entry_path.read_text())
        assert store.get(spec) is None  # corrupt reads as a miss...
        assert not entry_path.exists()  # ...and the entry self-heals away
        store.put(spec, result)
        assert store.get(spec) is not None


class TestChaosConfigPlumbing:
    def test_daemon_installs_and_uninstalls_injector(self):
        plan = FaultPlan(
            seed=1,
            rules=[FaultRule(point="actor.crash", every_nth=10_000)],
        )
        handle = start_daemon(workers=1, chaos=plan)
        try:
            assert chaos.installed() is handle.daemon.chaos_injector
            metrics = handle.daemon.metrics_snapshot()
            assert metrics["chaos"] is not None
            events = [e["event"] for e in handle.daemon.events]
            assert "chaos_installed" in events
        finally:
            handle.stop()
            handle.join()
        assert chaos.installed() is None  # identity-guarded teardown

    def test_chaos_free_daemon_reports_none(self):
        handle = start_daemon(workers=1)
        try:
            assert handle.daemon.chaos_injector is None
            assert handle.daemon.metrics_snapshot()["chaos"] is None
        finally:
            handle.stop()
            handle.join()

    def test_cli_parses_inline_plan_and_path(self, tmp_path):
        from repro.service.cli import build_parser, config_from_args

        plan_dict = {
            "seed": 12,
            "rules": [{"point": "actor.crash", "every_nth": 4}],
        }
        args = build_parser().parse_args(["--chaos-plan", json.dumps(plan_dict)])
        config = config_from_args(args)
        assert isinstance(config.chaos, FaultPlan)
        assert config.chaos.seed == 12

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_dict))
        args = build_parser().parse_args(["--chaos-plan", str(path)])
        assert config_from_args(args).chaos.seed == 12

    def test_cli_rejects_bad_plan(self):
        from repro.service.cli import build_parser, config_from_args

        args = build_parser().parse_args(
            ["--chaos-plan", '{"seed": 0, "rules": [{"point": "nope"}]}']
        )
        with pytest.raises(SystemExit, match="bad --chaos-plan"):
            config_from_args(args)
