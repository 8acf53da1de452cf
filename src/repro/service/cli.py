"""``repro-serve``: run the render service daemon from the command line.

Also reachable as ``python -m repro.service.cli`` and as the ``serve``
subcommand of :mod:`repro.analysis.runner`.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from repro.chaos import FaultPlan
from repro.service.daemon import ServiceConfig, ServiceDaemon


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run the streaming-render service daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP listen host")
    parser.add_argument(
        "--port", type=int, default=7340, help="TCP listen port (0 = pick free)"
    )
    parser.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="listen on a unix socket instead of TCP",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker-actor fleet size"
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission queue bound (beyond it requests are rejected)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-request deadline",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="persist in-flight requests here (resumed on restart)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared ResultStore directory for all workers",
    )
    parser.add_argument(
        "--quarantine-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wedged-actor quarantine threshold (default: 4x heartbeat timeout)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how long an open circuit rejects a kind before probing",
    )
    parser.add_argument(
        "--chaos-plan",
        default=None,
        metavar="JSON_OR_PATH",
        help=(
            "seeded fault-injection plan: a JSON object or a path to one "
            "(testing only; see repro.chaos.FAULT_POINTS)"
        ),
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    chaos_plan = None
    if args.chaos_plan:
        try:
            chaos_plan = FaultPlan.parse(args.chaos_plan)
        except (OSError, ValueError) as error:
            raise SystemExit(f"bad --chaos-plan: {error}") from None
    return ServiceConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        workers=args.workers,
        queue_limit=args.queue_limit,
        request_timeout_s=args.request_timeout,
        journal_dir=args.journal_dir,
        cache_dir=args.cache_dir,
        quarantine_after_s=args.quarantine_after,
        breaker_cooldown_s=args.breaker_cooldown,
        chaos=chaos_plan,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    daemon = ServiceDaemon(config_from_args(args))

    def _on_signal(signum, frame):  # pragma: no cover - interactive path
        daemon.request_stop(drain=True)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover - non-main thread
            pass

    handle = daemon.start_in_thread()
    print(
        json.dumps({"listening": list(handle.address), "workers": daemon.config.workers}),
        flush=True,
    )
    try:
        handle.thread.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        daemon.request_stop(drain=True)
        handle.thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
