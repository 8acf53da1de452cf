"""Experiment registry front-end and command-line entry point.

Lets a user regenerate any single table or figure without going through the
benchmark harness::

    python -m repro.analysis.runner --list
    python -m repro.analysis.runner fig3 fig4
    python -m repro.analysis.runner fig12 --json
    python -m repro.analysis.runner fig12 --jobs 4 --cache-dir results/
    python -m repro.analysis.runner all

Experiments are defined in :mod:`repro.api.experiments`; every invocation
hands its experiments to :func:`repro.api.executor.schedule_experiments`
with the process-wide :class:`~repro.api.session.Session`, and every
experiment returns a typed :class:`~repro.api.result.ExperimentResult`
(``--json`` emits its machine-readable form).  Results print in request
order once the schedule is done.

With ``--jobs 1`` or one experiment, the experiments run in this process,
one after the other, sharing scene contexts and renderers, and sweep-shaped
experiments (``fig12``, ``fig13``, anything built on
``Session.run_sweep``) evaluate their shards on ``--jobs`` workers.  With
``--jobs N`` and more than one experiment (``runner all --jobs 4``), whole
experiments run on the session's process pool, heaviest ``cost_hint``
first, each with serial sweeps.  Either way, when ``--jobs`` exceeds 1 or a
store is active, stderr gets, per experiment, an ``[execution]`` line for
its last sweep and a ``[scheduler]`` line with its wall time, then one
``[scheduler]`` summary (:meth:`~repro.api.executor.ExecutionReport.summary`).

The disk-backed result store: ``--cache-dir DIR`` (or the
``REPRO_CACHE_DIR`` environment variable) persists every evaluated point,
so a warm re-run renders nothing; ``--no-cache`` disables the store even
when the environment configures one.  ``--options '{"voxel_sizes":
[1.0, 2.0]}'`` forwards keyword arguments to each named experiment's
builder (reduced smoke grids in CI); when every top-level key names a
registered experiment and maps to an object, the options are routed per
experiment instead — ``'{"fig12": {"voxel_sizes": [1.0]}, "fig13":
{"cfus": [1, 2]}}'`` — which is how a multi-experiment invocation mixes
builders with different signatures.

``--telemetry-json PATH`` dumps what a run actually did — each
experiment's wall time, the schedule's
:class:`~repro.api.executor.ExecutionReport` (with each experiment's last
sweep report under ``sweeps``), session / render-service counters and the
result-store counters — as one JSON object for dashboards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.api.executor import schedule_experiments
from repro.api.experiments import REGISTRY, experiment_names
from repro.api.session import get_default_session


def route_options(
    options: Dict[str, Any], names: List[str]
) -> Dict[str, Dict[str, Any]]:
    """Resolve ``--options`` into per-experiment builder kwargs.

    A mapping whose every key is a registered experiment and whose every
    value is an object is *per-experiment*: each named experiment gets its
    entry (others get nothing).  Any other mapping is global: every named
    experiment gets the same kwargs — the historical behaviour.

    Raises ``ValueError`` when a per-experiment mapping routes options to
    an experiment that is not being run — silently dropping them would let
    a typo'd selection run with defaults and still exit 0.
    """
    per_experiment = bool(options) and all(
        key in REGISTRY and isinstance(value, dict)
        for key, value in options.items()
    )
    if per_experiment:
        unused = sorted(set(options) - set(names))
        if unused:
            raise ValueError(
                f"--options routes to experiment(s) {unused} that are not "
                f"selected; running: {list(names)}"
            )
        return {name: dict(options.get(name, {})) for name in names}
    return {name: dict(options) for name in names}


def _rejected_options(error: TypeError) -> bool:
    """Whether a TypeError is a builder rejecting ``--options`` kwargs.

    Only signature mismatches become a clean CLI error; a TypeError raised
    inside experiment code keeps its traceback.
    """
    message = str(error)
    return (
        "unexpected keyword argument" in message
        or "accepts no experiment parameters" in message
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # ``runner serve ...`` delegates to the service daemon CLI so the
        # daemon is reachable without installing the repro-serve script.
        from repro.service.cli import main as serve_main

        return serve_main(list(argv[1:]))
    if argv and argv[0] == "fleet":
        # ``runner fleet trace|replay|search ...`` — fleet simulator CLI.
        from repro.fleet.cli import main as fleet_main

        return fleet_main(list(argv[1:]))
    if argv and argv[0] == "search":
        # ``runner search --axis ...`` — shortcut for ``fleet search``.
        from repro.fleet.cli import main as fleet_main

        return fleet_main(["search", *argv[1:]])
    parser = argparse.ArgumentParser(
        prog="repro.analysis.runner",
        description="Regenerate tables/figures of the STREAMINGGS evaluation.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (e.g. fig3 tab2), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object per experiment per line (JSON Lines, "
        "ExperimentResult.to_json) instead of text",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker count: whole experiments on a process pool when more "
        "than one is named, else the shards of a sweep-shaped experiment "
        "(default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help="directory of the disk-backed result store (defaults to "
        "$REPRO_CACHE_DIR; unset = no caching)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result store even when --cache-dir / "
        "$REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--options",
        default=None,
        help="JSON object of keyword arguments forwarded to every named "
        "experiment's builder, e.g. '{\"voxel_sizes\": [1.0, 2.0]}'",
    )
    parser.add_argument(
        "--telemetry-json",
        default=None,
        metavar="PATH",
        help="dump execution telemetry as one JSON object to PATH "
        "(keys: experiments, scheduler, session, store): per-experiment "
        "wall times, the schedule's ExecutionReport with each experiment's "
        "last sweep report, session/render-service and store counters",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    options: Dict[str, Any] = {}
    if args.options:
        try:
            options = json.loads(args.options)
            if not isinstance(options, dict):
                raise ValueError("not a JSON object")
        except (json.JSONDecodeError, ValueError) as error:
            print(f"error: --options must be a JSON object ({error})", file=sys.stderr)
            return 2

    if args.list or not args.experiments:
        for name, definition in REGISTRY.items():
            print(f"{name:<8} {definition.description}")
        return 0

    names = (
        experiment_names() if args.experiments == ["all"] else list(args.experiments)
    )
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        print(
            f"error: unknown experiment(s) {unknown}; available: {sorted(REGISTRY)}",
            file=sys.stderr,
        )
        return 2

    store = None
    if args.cache_dir and not args.no_cache:
        from repro.api.store import ResultStore

        store = ResultStore(args.cache_dir)
    try:
        options_for = route_options(options, names)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    session = get_default_session()
    try:
        results, report = schedule_experiments(
            names,
            jobs=args.jobs,
            options=options_for,
            cache_dir=store.root if store is not None else None,
            session=session,
        )
    except TypeError as error:
        if not any(options_for.values()) or not _rejected_options(error):
            raise
        print(f"error: an experiment rejected --options: {error}", file=sys.stderr)
        return 2
    for result in results:
        if args.json:
            print(result.to_json())
        else:
            print(result.format())
            print()
    if args.jobs > 1 or store is not None:
        for name, seconds in zip(names, report.shard_times_s):
            if name in report.sweeps:
                print(f"[execution] {name}: {report.sweeps[name].summary()}", file=sys.stderr)
            print(f"[scheduler] {name}: {seconds:.2f}s", file=sys.stderr)
        print(f"[scheduler] {report.summary()}", file=sys.stderr)
    store_stats = None
    if store is not None:
        store_stats = {
            "hits": report.cache_hits,
            "misses": report.cache_misses,
            "entries": len(store),
            "dir": str(store.root),
        }
        line = " ".join(f"{key}={value}" for key, value in store_stats.items())
        print(f"[result-store] {line}", file=sys.stderr)
    if args.telemetry_json:
        from repro.api.store import atomic_write_json

        atomic_write_json(
            args.telemetry_json,
            {
                "experiments": {
                    name: {"elapsed_s": seconds}
                    for name, seconds in zip(names, report.shard_times_s)
                },
                "scheduler": report.to_dict(),
                "session": session.stats(),
                "store": store_stats,
            },
        )
        print(f"[telemetry] wrote {args.telemetry_json}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
