"""Typed experiment results.

Every experiment in the repository — a single point run, a paper
figure/table, or a sweep — returns an :class:`ExperimentResult` (or a
:class:`SweepResult` wrapping many of them) with one uniform interface:

* :meth:`~ExperimentResult.format` — the human-readable report (the exact
  text the analysis runner prints);
* :attr:`~ExperimentResult.metrics` — scalar headline numbers, machine
  readable;
* :attr:`~ExperimentResult.payload` — the full structured data behind the
  report, JSON-native;
* :meth:`~ExperimentResult.to_dict` / :meth:`~ExperimentResult.to_json` —
  lossless serialization; ``from_json(r.to_json())`` reproduces the result,
  including its formatted report.

This replaces the repository's previous informal convention of returning
anonymous objects that happened to have a ``format()`` method.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.analysis.report import format_table


def jsonify(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-native types.

    NumPy scalars and arrays, tuples, sets and non-string dictionary keys
    are all normalized so the output survives a ``json.dumps``/``loads``
    round trip unchanged.
    """
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonify(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(item) for item in value]
    raise TypeError(f"cannot serialize {type(value).__name__!r} value {value!r}")


@dataclass
class ExperimentResult:
    """Uniform result of one experiment.

    Attributes
    ----------
    name:
        Registered experiment name (``fig12``, ``tab1``, ...) or ``point``
        for a single :class:`~repro.api.spec.ExperimentSpec` run.
    title:
        One-line human-readable title.
    text:
        The formatted report; :meth:`format` returns it verbatim, so the
        report survives serialization.
    metrics:
        Scalar headline numbers (floats), e.g. ``speedup`` or
        ``streaming_psnr``.
    payload:
        The full structured data behind the report (JSON-native).
    meta:
        Provenance: the spec that produced the result, session info, etc.
    """

    name: str
    title: str
    text: str
    metrics: Dict[str, float] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.metrics = {str(k): float(v) for k, v in dict(self.metrics).items()}
        self.payload = jsonify(dict(self.payload))
        self.meta = jsonify(dict(self.meta))

    # ------------------------------------------------------------------
    def format(self) -> str:
        """The human-readable report."""
        return self.text

    def metric(self, name: str) -> float:
        """One scalar metric by name (raises ``KeyError`` if absent)."""
        if name not in self.metrics:
            raise KeyError(
                f"unknown metric {name!r}; available: {sorted(self.metrics)}"
            )
        return self.metrics[name]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dictionary representation (lossless)."""
        return {
            "name": self.name,
            "title": self.title,
            "text": self.text,
            "metrics": dict(self.metrics),
            "payload": self.payload,
            "meta": self.meta,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON representation; ``from_json`` reproduces the result."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        return cls(
            name=data["name"],
            title=data["title"],
            text=data["text"],
            metrics=data.get("metrics", {}),
            payload=data.get("payload", {}),
            meta=data.get("meta", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))


@dataclass
class SweepResult:
    """Ordered collection of point results produced by one sweep.

    Indexing and iteration yield the underlying
    :class:`ExperimentResult` objects in grid order (the cartesian product
    of the swept axes, last axis fastest).

    ``meta`` carries run telemetry — notably ``meta["execution"]``, the
    :class:`~repro.api.executor.ExecutionReport` of the sweep that produced
    the results (mode, shards, worker reuse, store hits).  It
    describes *how* the sweep ran, never *what* it computed: tables and
    metrics are byte-identical across serial and parallel runs while their
    ``meta`` legitimately differs, so parity checks compare
    ``to_dict()["results"]`` (or :meth:`format`), not the full dictionary.
    """

    results: List[ExperimentResult] = field(default_factory=list)
    swept: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.meta = jsonify(dict(self.meta))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ExperimentResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> ExperimentResult:
        return self.results[index]

    # ------------------------------------------------------------------
    def metric(self, name: str) -> List[float]:
        """One metric across every point, in grid order."""
        return [result.metric(name) for result in self.results]

    def labels(self) -> List[str]:
        """The per-point labels (the sweep's auto-generated tags)."""
        return [str(result.meta.get("label", result.name)) for result in self.results]

    def table(
        self, metrics: Optional[Sequence[str]] = None, title: str = ""
    ) -> str:
        """A text table with one row per point and one column per metric.

        A metric absent from some points (e.g. ``area_mm2`` on a GPU point
        of a mixed-arch sweep) renders as ``-`` there; a metric absent from
        every point raises ``KeyError``.
        """
        if metrics is None:
            metrics = list(self.results[0].metrics) if self.results else []
        for metric in metrics:
            if self.results and not any(metric in r.metrics for r in self.results):
                available = sorted({name for r in self.results for name in r.metrics})
                raise KeyError(f"unknown metric {metric!r}; available: {available}")
        rows = [
            [label] + [result.metrics.get(metric, "-") for metric in metrics]
            for label, result in zip(self.labels(), self.results)
        ]
        return format_table(["point"] + list(metrics), rows, title=title)

    def format(self) -> str:
        title = "sweep" + (f" over {', '.join(self.swept)}" if self.swept else "")
        return self.table(title=f"{title} ({len(self.results)} points)")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "swept": list(self.swept),
            "results": [result.to_dict() for result in self.results],
            "meta": dict(self.meta),
        }

    def table_dict(self) -> Dict[str, Any]:
        """The comparable payload: :meth:`to_dict` without ``meta``.

        The one form parity checks compare — serial and parallel runs of
        the same grid must produce equal ``table_dict()`` even though
        their execution telemetry differs.
        """
        data = self.to_dict()
        del data["meta"]
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepResult":
        return cls(
            results=[ExperimentResult.from_dict(r) for r in data.get("results", [])],
            swept=list(data.get("swept", [])),
            meta=data.get("meta", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_dict(json.loads(text))
