"""Seeded, deterministic fault injection for the service stack.

The service daemon, actors, supervisor and result store each expose
*named fault points* — ``chaos.fault("journal.torn_write")`` calls at the
exact spots where real systems tear, wedge, and run out of disk.  With no
injector installed (the default, and the production
state) ``fault()`` is a single global-``None`` check: zero overhead, no
locks, no counters.  Tests and the chaos benchmark install a
:class:`ChaosInjector` built from a :class:`FaultPlan`
(``ServiceConfig.chaos`` / ``repro-serve --chaos-plan``), and the same
plan + seed reproduces the same fault schedule run after run.

This package is intentionally stdlib-only and imports nothing else from
``repro`` so any layer (including ``repro.api`` during package init) can
depend on it without cycles.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.chaos.injector import ChaosInjector, build_injector
from repro.chaos.plan import FAULT_POINTS, FaultPlan, FaultRule

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "ChaosInjector",
    "build_injector",
    "install",
    "uninstall",
    "installed",
    "fault",
]

_injector: Optional[ChaosInjector] = None
_install_lock = threading.Lock()


def install(injector: ChaosInjector) -> ChaosInjector:
    """Make ``injector`` the process-global chaos injector."""
    global _injector
    with _install_lock:
        _injector = injector
    return injector


def uninstall(expected: Optional[ChaosInjector] = None) -> None:
    """Remove the global injector.

    With ``expected`` set, only uninstalls if that exact injector is
    still installed — so a daemon tearing down never clobbers a newer
    daemon's injector (stacked daemons in tests).
    """
    global _injector
    with _install_lock:
        if expected is None or _injector is expected:
            _injector = None


def installed() -> Optional[ChaosInjector]:
    """The currently installed injector, or ``None``."""
    return _injector


def fault(point: str) -> Optional[FaultRule]:
    """The hook instrumented code calls at a named fault point.

    Returns the :class:`FaultRule` to enact if chaos is installed and a
    rule fires; ``None`` otherwise.  The disabled path is one global
    read — cheap enough to leave in production code paths.
    """
    injector = _injector
    if injector is None:
        return None
    return injector.fire(point)
