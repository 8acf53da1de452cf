"""Fault plans: the declarative configuration of chaos injection.

A :class:`FaultPlan` names *what* goes wrong and *how often*: a list of
:class:`FaultRule`\\ s, each binding one registered fault point (see
:data:`FAULT_POINTS`) to a firing policy — a per-call probability, a
deterministic every-nth-call cadence, or both — plus an optional cap on
total fires and a delay parameter for the slow/hang fault kinds.  The
plan's ``seed`` makes probabilistic rules reproducible: the same plan
against the same call sequence fires the same faults.

Plans are plain data.  They serialize losslessly to JSON
(:meth:`FaultPlan.to_dict` / :meth:`FaultPlan.from_dict` /
:meth:`FaultPlan.load`), which is how ``repro-serve --chaos-plan`` and
the chaos benchmark configure a daemon.  Validation happens at
construction: an unknown fault point or a rule with no firing policy is
a configuration error, not a silent no-op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Union

#: Every fault point the service stack exposes, with what firing it does.
#: A :class:`FaultRule` must name one of these; the registry is the one
#: place to look up where faults can be injected.
FAULT_POINTS: Dict[str, str] = {
    "transport.drop_response": (
        "sever the connection before writing a work response (the client "
        "sees a mid-request connection loss and must reconnect + resend)"
    ),
    "transport.partial_write": (
        "write only the first half of a response frame, then sever the "
        "connection (torn NDJSON line on the wire)"
    ),
    "transport.slow_write": (
        "delay a response write by ``delay_s`` (slow consumer / congested "
        "link)"
    ),
    "actor.crash": (
        "kill the worker-actor thread mid-request, exactly like an uncaught "
        "failure (the supervisor restarts and retries)"
    ),
    "actor.hang": (
        "wedge the actor for ``delay_s`` without heartbeats (the watchdog "
        "sees a stall and quarantines it)"
    ),
    "actor.slow_render": "sleep ``delay_s`` before executing a request",
    "journal.torn_write": (
        "persist a journal entry as truncated JSON without the atomic "
        "rename (a torn write; resume moves it aside as .corrupt)"
    ),
    "store.corrupt_entry": (
        "truncate a just-written result-store entry (reads self-heal it "
        "back to a miss)"
    ),
    "store.enospc": (
        "raise ENOSPC from a result-store put (cache fills degrade to "
        "best-effort, never fail the request)"
    ),
}


@dataclass
class FaultRule:
    """One fault point bound to a firing policy.

    Attributes
    ----------
    point:
        A registered fault point name (key of :data:`FAULT_POINTS`).
    probability:
        Per-call firing probability in ``[0, 1]``, drawn from the rule's
        own seeded RNG stream (deterministic per plan seed).
    every_nth:
        Fire on every nth call of the point (``every_nth=4`` fires calls
        4, 8, 12, ...).  Combines with ``probability`` as *either/or*.
    max_fires:
        Cap on total fires of this rule; ``None`` is unbounded.
    delay_s:
        Sleep parameter of the slow/hang fault kinds.
    """

    point: str
    probability: float = 0.0
    every_nth: int = 0
    max_fires: Union[int, None] = None
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ValueError(f"unknown fault point {self.point!r}; known: {known}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.every_nth < 0:
            raise ValueError(f"every_nth must be >= 0, got {self.every_nth}")
        if self.probability == 0.0 and self.every_nth == 0:
            raise ValueError(
                f"rule for {self.point!r} has no firing policy; set "
                "probability > 0 and/or every_nth > 0"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"point": self.point}
        if self.probability:
            data["probability"] = self.probability
        if self.every_nth:
            data["every_nth"] = self.every_nth
        if self.max_fires is not None:
            data["max_fires"] = self.max_fires
        if self.delay_s != 0.05:
            data["delay_s"] = self.delay_s
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        return cls(
            point=str(data["point"]),
            probability=float(data.get("probability", 0.0)),
            every_nth=int(data.get("every_nth", 0)),
            max_fires=(
                int(data["max_fires"]) if data.get("max_fires") is not None else None
            ),
            delay_s=float(data.get("delay_s", 0.05)),
        )


@dataclass
class FaultPlan:
    """A seeded set of fault rules — the whole chaos configuration.

    ``seed`` feeds every probabilistic rule's private RNG stream, so one
    plan replayed against the same sequence of fault-point calls makes
    the same decisions.  Multiple rules may target the same point; they
    are evaluated in plan order and the first hit wins.
    """

    seed: int = 0
    rules: List[FaultRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rules = [
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in self.rules
        ]

    def __len__(self) -> int:
        return len(self.rules)

    def points(self) -> List[str]:
        """Distinct fault points this plan targets, in rule order."""
        seen: Dict[str, None] = {}
        for rule in self.rules:
            seen.setdefault(rule.point, None)
        return list(seen)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        rules_data: Iterable[Mapping[str, Any]] = data.get("rules") or []
        return cls(
            seed=int(data.get("seed", 0)),
            rules=[FaultRule.from_dict(rule) for rule in rules_data],
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def parse(cls, text_or_path: Union[str, Path]) -> "FaultPlan":
        """A plan from a JSON string or a path to a JSON file.

        The CLI accepts both: ``--chaos-plan plan.json`` and
        ``--chaos-plan '{"seed": 7, "rules": [...]}'``.
        """
        text = str(text_or_path)
        if text.lstrip().startswith("{"):
            return cls.from_dict(json.loads(text))
        return cls.load(text)
