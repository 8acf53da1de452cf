"""In-memory span tracer that wraps public functions from outside.

The traced run wraps the functions at each layer boundary (see
``layers.py``); every call becomes a :class:`Span` with a name, start and
end on ``time.perf_counter``, the span that caused it (the enclosing span
on the same thread) and, for service spans, the request id.  Spans stay
in memory and are written out when the run ends.

A function is wrapped at every name its callers look it up by: a module
that imported it by value holds its own binding, so the tracer replaces
each ``repro`` module global bound to the same object.  Methods are
wrapped on their class.  A target that no longer exists is recorded in
:attr:`Tracer.missing` and skipped; it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``hook(tracer, args, kwargs, result)`` -> request id or ``None``; may
#: also bump :attr:`Tracer.counts`.
Hook = Callable[["Tracer", tuple, dict, Any], Optional[str]]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    rid: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` + dotted ``qualname``.

    ``span`` is the span name (``None`` for a count-only wrapper, which
    runs ``hook`` but records no span); ``hook`` inspects each call.
    """

    module: str
    qualname: str
    span: Optional[str]
    hook: Optional[Hook] = None

    @property
    def ident(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def key(self) -> str:
        """The span name, or the qualname of a count-only target."""
        return self.span or self.qualname


class Tracer:
    """Records spans of wrapped calls; ``packages`` are the module trees
    whose by-value bindings of a wrapped function are replaced too."""

    def __init__(self, packages: Sequence[str] = ("repro",)) -> None:
        self.packages = tuple(packages)
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: ``"module.qualname"`` of each target that could not be wrapped,
        #: with the reason.
        self.missing: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` recording a span named ``target.span`` on every call.

        The span's request id is what ``target.hook`` returns for the call.
        """
        tracer, name, hook = self, target.span, target.hook

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                rid = hook(tracer, args, kwargs, result) if hook is not None else None
                tracer.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), rid)
                )

        return traced

    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; unresolvable ones go to :attr:`missing`."""
        for target in targets:
            try:
                self._install(target)
            except (ImportError, AttributeError) as error:
                self.missing[target.ident] = f"{type(error).__name__}: {error}"

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner: Any = module
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if path:
            # A method: wrap it on the class that defines it, keeping its
            # descriptor kind so bound/class/static calls behave unchanged.
            if attr not in vars(owner):
                raise AttributeError(f"{owner.__name__} defines no {attr!r}")
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self.wrap(raw.__func__, target))
            else:
                wrapped = self.wrap(raw, target)
            self._patch(owner, attr, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self.wrap(original, target)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or name.split(".")[0] not in self.packages:
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, binding, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans: Sequence[Span], op_names: Sequence[str] = ()) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    A span's children are the spans it caused on its own thread.  Spans
    named in ``op_names`` (the benchmark's own per-op spans) also adopt,
    by request id, the top-level spans other threads recorded for the same
    request, so work the daemon did on the op's behalf counts as covered.
    Overlapping children (cross-thread work can overlap) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    ops = set(op_names)
    by_rid: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.rid is not None and (span.parent == 0 or span.name in ops):
            by_rid[span.rid].append(span)
    for span in spans:
        if span.name in ops and span.rid is not None:
            children[span.sid].extend(
                (other.start, other.end)
                for other in by_rid[span.rid]
                if other.thread != span.thread and other.parent == 0
            )
    return {
        span.sid: span.duration - covered((span.start, span.end), children[span.sid])
        for span in spans
    }
