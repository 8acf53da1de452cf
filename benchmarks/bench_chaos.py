#!/usr/bin/env python
"""Chaos benchmark: trace replay under seeded fault injection.

Generates a reduced mixed-kind fleet trace, boots an embedded
:class:`~repro.service.daemon.ServiceDaemon` with a seeded
:class:`~repro.chaos.plan.FaultPlan` covering every layer — actor
crashes/hangs/slowdowns, dropped and torn transport responses, torn
journal writes, corrupted store entries — and replays the trace over
the real NDJSON wire protocol with reconnecting clients.

The point is not latency (faults make wall clock meaningless) but
*accounting*: under seeded chaos every request must still reach exactly
one terminal outcome.  ``--check`` gates on:

* zero lost requests — every trace event gets a terminal outcome and no
  client loses its connection past the reconnect budget;
* the journal drains empty after graceful shutdown;
* the books balance after the drain: ``accepted + resumed == completed +
  failed`` daemon-wide and for each client and kind, with nothing left
  queued or in flight;
* the daemon's ``healthz``, polled on a side thread from before the
  replay starts, turns ``degraded`` whenever the plan's ``actor.hang``
  rule fired (a wedged actor is quarantined) and returns to ``healthy``
  within a bounded recovery window (the quarantined actor retired);
  ``recovery_s`` is the time from the first ``degraded`` to the next
  ``healthy``;
* no orphaned store temp files;
* every fault point the plan targets was reached (called) at least once,
  so no layer of the plan goes untested;
* at least four distinct fault points actually fired (the run really
  was chaotic, not a vacuous pass);
* the disabled injector's fast path stays under a microsecond-scale
  per-call budget (chaos off must cost nothing).

Appends one entry to the ``BENCH_chaos.json`` trajectory::

    PYTHONPATH=src python benchmarks/bench_chaos.py
    PYTHONPATH=src python benchmarks/bench_chaos.py --check --speed 5
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro import chaos
from repro.api import append_trajectory
from repro.chaos import FaultPlan, FaultRule
from repro.fleet import RequestClass, generate_trace, replay_trace, summarize_replay
from repro.service import ServiceClient, ServiceConfig, ServiceDaemon
from repro.service.supervisor import Journal

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

#: Per-call budget for the *disabled* injector fast path.  The real cost
#: is one global read (~100 ns with call overhead); the gate is loose
#: enough for noisy CI hosts while still catching an accidental lock or
#: dict lookup on the hot path.
DISABLED_OVERHEAD_BUDGET_S = 2e-6

#: How long the daemon may take to report ``healthy`` again after it
#: first turned ``degraded`` (hung actors retired).
RECOVERY_BOUND_S = 20.0

#: Seconds between two ``healthz`` polls of :class:`HealthWatch`.
HEALTH_POLL_S = 0.05


def chaos_classes(clients_per_class: int) -> list:
    """A deliberately *light* request mix: low-resolution renders and sweeps.

    Actors heartbeat between requests, not during one, so the quarantine
    threshold must sit above the slowest legitimate execution.  Keeping
    every request under the (~3 s) cold renderer build bound lets the
    benchmark use an aggressive quarantine window and still tell a real
    hang from honest work.

    Renders never touch the result store; the sweeps do.  Every sweep
    evaluates the same four-point grid (one shard, a few ms once the
    context is built), so the first writes four entries, enough for the
    plan's ``store.corrupt_entry`` rule (every 4th put) to fire, and later
    sweeps read the corrupted entry back, which heals it.
    """
    return [
        RequestClass(
            name="preview",
            kind="render",
            weight=4.0,
            scene="lego",
            resolution_scale=0.25,
            clients=clients_per_class,
        ),
        RequestClass(
            name="thumb",
            kind="render",
            weight=2.0,
            scene="train",
            resolution_scale=0.25,
            clients=clients_per_class,
        ),
        RequestClass(
            name="grid",
            kind="sweep",
            weight=2.0,
            scene="lego",
            resolution_scale=0.25,
            grid={"num_hfu": [1, 2, 4, 8]},
            clients=clients_per_class,
        ),
    ]


def build_plan(seed: int) -> FaultPlan:
    """A seeded plan touching every layer of the service stack.

    The hang delay must exceed the daemon's quarantine window (so the
    wedged actor really is quarantined) and its stall window.
    """
    return FaultPlan(
        seed=seed,
        rules=[
            FaultRule(point="actor.crash", every_nth=5, max_fires=2),
            FaultRule(point="actor.hang", every_nth=6, max_fires=1, delay_s=7.0),
            FaultRule(
                point="actor.slow_render",
                probability=0.25,
                max_fires=4,
                delay_s=0.05,
            ),
            FaultRule(point="transport.drop_response", every_nth=4, max_fires=3),
            FaultRule(point="transport.partial_write", every_nth=9, max_fires=2),
            FaultRule(point="journal.torn_write", every_nth=3, max_fires=4),
            FaultRule(point="store.corrupt_entry", every_nth=4, max_fires=2),
        ],
    )


def measure_disabled_overhead(calls: int = 200_000) -> float:
    """Mean seconds per ``chaos.fault`` call with no injector installed."""
    assert chaos.installed() is None, "chaos must be uninstalled for the baseline"
    fault = chaos.fault
    started = time.perf_counter()
    for _ in range(calls):
        fault("actor.crash")
    return (time.perf_counter() - started) / calls


def unbalanced(metrics) -> list:
    """Scopes of a drained daemon's ``/metrics`` whose books do not balance.

    With nothing queued or in flight every admitted request has settled,
    so ``accepted + resumed == completed + failed`` must hold daemon-wide
    and for each client and kind.
    """
    scopes = {"daemon": metrics["requests"]}
    scopes.update({f"client {n}": c for n, c in metrics["clients"].items()})
    scopes.update({f"kind {n}": c for n, c in metrics["kinds"].items()})
    return [
        f"{scope}: {c}"
        for scope, c in scopes.items()
        if c["accepted"] + c["resumed"] != c["completed"] + c["failed"]
    ]


class HealthWatch:
    """Polls the daemon's ``healthz`` on a side thread.

    Started before the replay, so it sees a daemon that degrades while
    requests are still out (a hung actor is quarantined, then retired
    once its hang ends, all before the replay returns).  It records when
    the daemon first reported ``degraded`` and when it next reported
    ``healthy``.  ``healthz`` is a control request, which no transport
    fault touches.
    """

    def __init__(self, address) -> None:
        self.address = address
        self.degraded_at: float = -1.0
        self.healthy_at: float = -1.0
        self.polls = 0
        self.error = ""
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="chaos-health", daemon=True)

    def __enter__(self) -> "HealthWatch":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=60.0)

    def _poll(self) -> None:
        try:
            with ServiceClient.connect(
                self.address, client="chaos-health", timeout=30.0, reconnect=3
            ) as probe:
                while not self._stop.is_set():
                    status = probe.health().get("status")
                    now = time.perf_counter()
                    self.polls += 1
                    if status == "degraded" and self.degraded_at < 0.0:
                        self.degraded_at = now
                    elif status == "healthy" and 0.0 <= self.degraded_at and self.healthy_at < 0.0:
                        self.healthy_at = now
                    self._stop.wait(HEALTH_POLL_S)
        except Exception as error:  # reported by the gate, not raised in a thread
            self.error = f"{type(error).__name__}: {error}"

    @property
    def degraded(self) -> bool:
        """Whether the daemon ever reported ``degraded``."""
        return self.degraded_at >= 0.0

    def recovery_s(self, bound_s: float) -> float:
        """Seconds from the first ``degraded`` to the next ``healthy``.

        Waits until the daemon is healthy again, at most until ``bound_s``
        after it degraded; ``-1.0`` when it did not recover in time, ``0.0``
        when it never degraded.
        """
        if not self.degraded:
            return 0.0
        deadline = self.degraded_at + bound_s
        while self.healthy_at < 0.0 and time.perf_counter() < deadline and self._thread.is_alive():
            time.sleep(HEALTH_POLL_S)
        if self.healthy_at < 0.0:
            return -1.0
        return self.healthy_at - self.degraded_at


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=4.0, help="trace seconds")
    parser.add_argument("--rate", type=float, default=6.0, help="mean arrivals/s")
    parser.add_argument("--seed", type=int, default=1337, help="trace + fault seed")
    parser.add_argument("--clients-per-class", type=int, default=2)
    parser.add_argument("--speed", type=float, default=4.0, help="schedule compression")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--retries", type=int, default=6, help="admission retries")
    parser.add_argument("--reconnect", type=int, default=3, help="resend budget")
    parser.add_argument("--check", action="store_true", help="fail on any gate")
    parser.add_argument("--output", default=str(TRAJECTORY_PATH))
    args = parser.parse_args(argv)

    plan = build_plan(args.seed)
    trace = generate_trace(
        classes=chaos_classes(args.clients_per_class),
        duration_s=args.duration,
        rate_hz=args.rate,
        arrival="poisson",
        seed=args.seed,
    )
    print(
        f"trace: {len(trace)} events, {len(trace.clients)} clients, "
        f"replayed at {args.speed}x under {len(plan)} fault rules "
        f"(seed={args.seed})"
    )

    overhead_s = measure_disabled_overhead()

    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as workdir:
        cache_dir = str(Path(workdir) / "store")
        journal_dir = str(Path(workdir) / "journal")
        daemon = ServiceDaemon(
            ServiceConfig(
                port=0,
                workers=args.workers,
                queue_limit=args.queue_limit,
                cache_dir=cache_dir,
                journal_dir=journal_dir,
                heartbeat_timeout_s=0.5,
                quarantine_after_s=4.5,
                chaos=plan,
            )
        )
        handle = daemon.start_in_thread()
        try:
            with HealthWatch(handle.address) as health:
                report = replay_trace(
                    trace,
                    handle.address,
                    speed=args.speed,
                    retries=args.retries,
                    reconnect=args.reconnect,
                    timeout=120.0,
                    scrape_metrics=False,
                )
                recovery_s = health.recovery_s(RECOVERY_BOUND_S)
            metrics = daemon.metrics_snapshot()
        finally:
            handle.stop(drain=True)
            handle.join()
        drained = daemon.metrics_snapshot()

        journal_left = len(Journal(Path(journal_dir)))
        orphaned_tmp = [
            str(p) for p in Path(workdir).rglob("*") if p.name.endswith(".tmp")
        ]

    summary = summarize_replay(report, window_s=trace.duration_s / args.speed)
    overall = summary["overall"]
    chaos_stats = metrics.get("chaos") or {}
    fired = sorted(p for p, s in chaos_stats.items() if s.get("fires", 0) > 0)
    uncalled = [p for p in plan.points() if not chaos_stats.get(p, {}).get("calls")]
    # Corrupted store entries that a later read found and removed.
    store_healed = drained["store"]["healed"]
    lost = [
        o
        for o in report.outcomes
        if o.code
        and (
            o.code == "connection_lost"
            or o.code.startswith("transport_error:")
            or o.code.startswith("connect_error:")
        )
    ]

    print(
        "replay: submitted={submitted} completed={completed} failed={failed} "
        "retried={retried} backoffs={backoffs} resends={resends}".format(**overall)
    )
    print(
        f"chaos fired: {fired}  uncalled: {uncalled}  "
        f"stats={ {p: s['fires'] for p, s in sorted(chaos_stats.items())} }"
    )
    print(
        f"supervision: {metrics['supervision']}  "
        f"deadline_exceeded={metrics['requests'].get('deadline_exceeded', 0)} "
        f"resends_served={metrics['requests'].get('resends_served', 0)}"
    )
    books = unbalanced(drained)
    if drained["in_flight"] or drained["queue"]["depth"]:
        books.append(
            f"not drained: in_flight={drained['in_flight']} "
            f"queued={drained['queue']['depth']}"
        )
    print(f"books after drain: {'balanced' if not books else books}")
    hang_fired = chaos_stats.get("actor.hang", {}).get("fires", 0) > 0
    print(
        f"health: polls={health.polls} degraded={health.degraded} "
        f"hang_fired={hang_fired}{' error=' + health.error if health.error else ''}"
    )
    print(
        f"recovery={recovery_s:.2f}s journal_left={journal_left} "
        f"store_healed={store_healed} "
        f"orphaned_tmp={orphaned_tmp} "
        f"disabled_overhead={overhead_s * 1e9:.0f} ns/call"
    )

    ok_accounted = len(report.outcomes) == len(trace)
    ok_none_lost = not lost
    ok_journal_drained = journal_left == 0
    ok_balanced = not books
    ok_recovered = 0.0 <= recovery_s <= RECOVERY_BOUND_S
    ok_degraded_seen = health.degraded or not hang_fired
    ok_no_orphans = not orphaned_tmp
    ok_reached = not uncalled
    ok_chaotic = len(fired) >= 4
    ok_overhead = overhead_s < DISABLED_OVERHEAD_BUDGET_S
    clean = all(
        (
            ok_accounted,
            ok_none_lost,
            ok_journal_drained,
            ok_balanced,
            ok_recovered,
            ok_degraded_seen,
            ok_no_orphans,
            ok_reached,
            ok_chaotic,
            ok_overhead,
        )
    )

    entry = {
        "duration_s": args.duration,
        "rate_hz": args.rate,
        "seed": args.seed,
        "speed": args.speed,
        "workers": args.workers,
        "queue_limit": args.queue_limit,
        "reconnect": args.reconnect,
        "fault_rules": len(plan),
        "cpu_count": os.cpu_count(),
        "events": len(trace),
        "outcomes": len(report.outcomes),
        "completed": overall["completed"],
        "failed": overall["failed"],
        "retried": overall["retried"],
        "backoffs": overall["backoffs"],
        "resends": overall["resends"],
        "lost": len(lost),
        "wall_s": round(report.wall_s, 6),
        "recovery_s": round(recovery_s, 6),
        "health_polls": health.polls,
        "degraded_seen": health.degraded,
        "fired_points": fired,
        "uncalled_points": uncalled,
        "chaos_fires": {p: s["fires"] for p, s in sorted(chaos_stats.items())},
        "deadline_exceeded": metrics["requests"].get("deadline_exceeded", 0),
        "resends_served": metrics["requests"].get("resends_served", 0),
        "supervision": metrics["supervision"],
        "journal_left": journal_left,
        "balanced": ok_balanced,
        "store_healed": store_healed,
        "orphaned_store_tmp": len(orphaned_tmp),
        "disabled_overhead_ns": round(overhead_s * 1e9, 1),
        "clean": clean,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    append_trajectory(args.output, entry)
    print(f"appended trajectory entry to {args.output}")

    if args.check:
        failed = False
        if not ok_accounted:
            print(
                f"FAIL: {len(trace) - len(report.outcomes)} event(s) never "
                "reached a terminal outcome",
                file=sys.stderr,
            )
            failed = True
        if not ok_none_lost:
            print(
                f"FAIL: {len(lost)} request(s) lost to transport errors: "
                f"{[o.code for o in lost[:5]]}",
                file=sys.stderr,
            )
            failed = True
        if not ok_journal_drained:
            print(
                f"FAIL: journal still holds {journal_left} entrie(s) after drain",
                file=sys.stderr,
            )
            failed = True
        if not ok_balanced:
            print(f"FAIL: books do not balance after drain: {books}", file=sys.stderr)
            failed = True
        if not ok_recovered:
            print(
                f"FAIL: daemon did not return to healthy within "
                f"{RECOVERY_BOUND_S}s (recovery_s={recovery_s})",
                file=sys.stderr,
            )
            failed = True
        if not ok_degraded_seen:
            print(
                "FAIL: the actor.hang rule fired but healthz never reported "
                f"degraded ({health.polls} polls{', ' + health.error if health.error else ''})",
                file=sys.stderr,
            )
            failed = True
        if not ok_no_orphans:
            print(f"FAIL: orphaned store temp files: {orphaned_tmp}", file=sys.stderr)
            failed = True
        if not ok_reached:
            print(
                f"FAIL: planned fault point(s) never reached: {uncalled}",
                file=sys.stderr,
            )
            failed = True
        if not ok_chaotic:
            print(
                f"FAIL: only {len(fired)} fault point(s) fired ({fired}); "
                "need >= 4 for a meaningful chaos run",
                file=sys.stderr,
            )
            failed = True
        if not ok_overhead:
            print(
                f"FAIL: disabled chaos.fault costs {overhead_s * 1e9:.0f} ns/call "
                f"(budget {DISABLED_OVERHEAD_BUDGET_S * 1e9:.0f} ns)",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
