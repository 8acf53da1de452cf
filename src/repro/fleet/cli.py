"""Command-line front end of the fleet simulator and design-space search.

Reached through the analysis runner::

    python -m repro.analysis.runner fleet trace --out trace.json
    python -m repro.analysis.runner fleet replay --embedded --speed 10
    python -m repro.analysis.runner search --axis num_hfu=2,4 --axis sram_scale=0.5,1

``fleet replay`` drives a daemon over the real NDJSON wire protocol —
either one you point it at (``--address tcp:HOST:PORT`` /
``--address unix:PATH``) or an embedded one it boots for the run
(``--embedded``).  ``search`` evaluates the grid of its axes and reports
the Pareto frontier (:mod:`repro.fleet.search`); with ``--store`` a
re-run is served from the result store.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fleet.aggregate import fleet_costs, summarize_replay
from repro.fleet.clients import replay_trace
from repro.fleet.traces import (
    ARRIVAL_PROCESSES,
    Trace,
    default_classes,
    generate_trace,
)


def parse_address(text: str) -> Tuple[str, ...]:
    """Parse ``tcp:HOST:PORT`` or ``unix:PATH`` into an address tuple."""
    scheme, _, rest = text.partition(":")
    if scheme == "tcp":
        host, _, port = rest.rpartition(":")
        if not host or not port:
            raise argparse.ArgumentTypeError(
                f"tcp address must be tcp:HOST:PORT, got {text!r}"
            )
        return ("tcp", host, port)
    if scheme == "unix":
        if not rest:
            raise argparse.ArgumentTypeError(
                f"unix address must be unix:PATH, got {text!r}"
            )
        return ("unix", rest)
    raise argparse.ArgumentTypeError(
        f"address must start with tcp: or unix:, got {text!r}"
    )


def parse_axis(text: str) -> Tuple[str, List[Any]]:
    """Parse ``name=v1,v2,...`` with numeric value coercion."""
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise argparse.ArgumentTypeError(
            f"axis must be NAME=V1,V2,..., got {text!r}"
        )

    def coerce(token: str) -> Any:
        try:
            return int(token)
        except ValueError:
            try:
                return float(token)
            except ValueError:
                return token

    return name, [coerce(token) for token in values.split(",") if token]


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", type=float, default=10.0, help="trace seconds")
    parser.add_argument("--rate", type=float, default=20.0, help="mean arrivals/s")
    parser.add_argument("--arrival", choices=ARRIVAL_PROCESSES, default="poisson")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--burst-size", type=int, default=8)
    parser.add_argument(
        "--clients-per-class",
        type=int,
        default=4,
        help="synthetic client population per request class",
    )


def _trace_from_args(args: argparse.Namespace) -> Trace:
    if getattr(args, "trace", None):
        return Trace.load(args.trace)
    return generate_trace(
        classes=default_classes(args.clients_per_class),
        duration_s=args.duration,
        rate_hz=args.rate,
        arrival=args.arrival,
        seed=args.seed,
        burst_size=args.burst_size,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet", description=__doc__.splitlines()[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser("trace", help="generate a trace file")
    _add_trace_arguments(trace)
    trace.add_argument("--out", required=True, help="trace JSON destination")

    replay = commands.add_parser("replay", help="replay a trace against a daemon")
    _add_trace_arguments(replay)
    replay.add_argument("--trace", help="trace JSON (default: generate one)")
    group = replay.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--address", type=parse_address, help="tcp:HOST:PORT or unix:PATH"
    )
    group.add_argument(
        "--embedded", action="store_true", help="boot an embedded daemon for the run"
    )
    replay.add_argument("--workers", type=int, default=2, help="embedded daemon workers")
    replay.add_argument("--queue-limit", type=int, default=64)
    replay.add_argument("--store", help="result-store directory (embedded daemon)")
    replay.add_argument("--speed", type=float, default=1.0, help="schedule compression")
    replay.add_argument("--retries", type=int, default=5)
    replay.add_argument("--timeout", type=float, default=300.0)
    replay.add_argument("--json", dest="json_out", help="write the summary JSON here")

    search = commands.add_parser("search", help="Pareto design-space search")
    search.add_argument(
        "--axis",
        type=parse_axis,
        action="append",
        required=True,
        metavar="NAME=V1,V2,...",
        help="one design axis (repeatable), e.g. num_hfu=2,4,8",
    )
    search.add_argument("--scene", default="lego")
    search.add_argument("--resolution-scale", type=float, default=0.25)
    search.add_argument("--store", help="result-store directory (resumable cache)")
    search.add_argument("--json", dest="json_out", help="write the result JSON here")
    return parser


def _emit(payload: Dict[str, Any], json_out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_out:
        Path(json_out).write_text(text)
        print(f"wrote {json_out}")
    else:
        print(text)


# ----------------------------------------------------------------------
def cmd_trace(args: argparse.Namespace) -> int:
    trace = _trace_from_args(args)
    trace.save(args.out)
    print(
        f"wrote {args.out}: {len(trace)} events, {len(trace.clients)} clients, "
        f"{trace.frames():.0f} model frames over {trace.duration_s:.1f}s "
        f"({trace.arrival})"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    trace = _trace_from_args(args)
    window_s = trace.duration_s / args.speed

    def run(address) -> Dict[str, Any]:
        report = replay_trace(
            trace,
            address,
            speed=args.speed,
            retries=args.retries,
            timeout=args.timeout,
        )
        summary = summarize_replay(report, window_s=window_s)
        from repro.api.session import Session

        with Session(store=store_dir) as session:
            costs = fleet_costs(trace.classes, report, session, window_s=window_s)
        return {"trace": {"events": len(trace), "clients": len(trace.clients)},
                "service": summary, "fleet": costs.as_dict()}

    if args.embedded:
        from repro.service.daemon import ServiceConfig, ServiceDaemon

        with tempfile.TemporaryDirectory(prefix="fleet-store-") as tmp:
            store_dir = args.store or tmp
            daemon = ServiceDaemon(
                ServiceConfig(
                    port=0,
                    workers=args.workers,
                    queue_limit=args.queue_limit,
                    cache_dir=store_dir,
                )
            )
            handle = daemon.start_in_thread()
            try:
                payload = run(handle.address)
            finally:
                handle.stop(drain=True)
                handle.join()
    else:
        store_dir = args.store
        payload = run(args.address)

    _emit(payload, args.json_out)
    overall = payload["service"]["overall"]
    if overall["completed"] < overall["submitted"]:
        print(
            f"warning: {overall['submitted'] - overall['completed']} event(s) "
            "did not complete",
            file=sys.stderr,
        )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from repro.api.session import Session
    from repro.api.spec import ExperimentSpec
    from repro.fleet.search import pareto_search

    base = ExperimentSpec(scene=args.scene, resolution_scale=args.resolution_scale)
    with Session(store=args.store) as session:
        result = pareto_search(session, base, axes=dict(args.axis))
    _emit(result.to_dict(), args.json_out)
    print(
        f"frontier: {len(result.frontier)} point(s) from {result.evaluations} "
        f"evaluation(s) of a {result.space.size}-point grid"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "replay":
        return cmd_replay(args)
    return cmd_search(args)


if __name__ == "__main__":
    raise SystemExit(main())
