"""Pareto search over the accelerator design space.

:func:`pareto_search` evaluates every point of the axes' lattice in one
:meth:`~repro.api.session.Session.run_sweep` — so a repeated search, or a
``Session.sweep`` over the same axes, is served from the session's
``ResultStore`` — and keeps the points that no other point dominates
under minimisation of (``frame_time_ms``, ``energy_per_frame_mj``,
``area_mm2``).

Every lattice point differs from the base spec only in its arch options,
so the whole lattice shares one scene context, and once that is built a
point costs only its hardware-model evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Objectives minimised by the search, in report order.
OBJECTIVES = ("frame_time_ms", "energy_per_frame_mj", "area_mm2")


@dataclass(frozen=True)
class DesignSpace:
    """Ordered axes of the search: arch-option name → candidate values."""

    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]

    def __post_init__(self) -> None:
        from repro.api.spec import _ARCH_OPTION_FIELDS

        frozen = tuple(
            (str(name), tuple(values)) for name, values in dict(self.axes).items()
        )
        if not frozen:
            raise ValueError("design space needs at least one axis")
        for name, values in frozen:
            if name not in _ARCH_OPTION_FIELDS:
                raise ValueError(
                    f"unknown arch option {name!r}; "
                    f"available: {sorted(_ARCH_OPTION_FIELDS)}"
                )
            if not values:
                raise ValueError(f"axis {name!r} needs at least one value")
        object.__setattr__(self, "axes", frozen)

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(values) for _, values in self.axes)

    @property
    def size(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    def values(self, index: Tuple[int, ...]) -> Dict[str, Any]:
        """Axis values at one lattice index."""
        return {
            name: values[i] for (name, values), i in zip(self.axes, index)
        }

    def all_indices(self) -> List[Tuple[int, ...]]:
        """Every lattice index, the last axis varying fastest."""
        return [
            tuple(idx)
            for idx in itertools.product(*(range(extent) for extent in self.shape))
        ]


@dataclass(frozen=True)
class SearchPoint:
    """One evaluated design point."""

    index: Tuple[int, ...]
    values: Dict[str, Any]
    objectives: Dict[str, float]
    label: str = ""

    @property
    def key(self) -> Tuple[float, ...]:
        return tuple(float(self.objectives[name]) for name in OBJECTIVES)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "values": dict(self.values),
            "objectives": {name: float(self.objectives[name]) for name in OBJECTIVES},
            "label": self.label,
        }


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse in every objective and better in one."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_frontier(points: Sequence[SearchPoint]) -> List[SearchPoint]:
    """Non-dominated subset of ``points`` (stable order)."""
    frontier: List[SearchPoint] = []
    for candidate in points:
        if any(
            dominates(other.key, candidate.key)
            for other in points
            if other is not candidate
        ):
            continue
        frontier.append(candidate)
    return frontier


@dataclass
class SearchResult:
    """Everything one search run produced."""

    space: DesignSpace
    points: List[SearchPoint] = field(default_factory=list)
    frontier: List[SearchPoint] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        return len(self.points)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axes": {name: list(values) for name, values in self.space.axes},
            "grid_size": self.space.size,
            "evaluations": self.evaluations,
            "frontier": [point.to_dict() for point in self.frontier],
            "points": [point.to_dict() for point in self.points],
        }


def pareto_search(
    session, base, axes: Mapping[str, Sequence[Any]]
) -> SearchResult:
    """Evaluate the lattice of ``axes`` around ``base``; keep its frontier.

    ``base`` is the :class:`~repro.api.spec.ExperimentSpec` whose arch
    options the axes override; its arch must report every objective.  The
    lattice is :func:`repro.api.spec.sweep`'s grid, so each point has the
    label and store key ``Session.sweep(base, **axes)`` gives it.  Points
    and frontier come back in lattice order (:meth:`DesignSpace.all_indices`).
    """
    from repro.api.spec import sweep

    if not axes:
        raise ValueError("pareto_search needs at least one axis")
    space = DesignSpace(tuple(dict(axes).items()))
    specs = sweep(base, **dict(space.axes))
    results = session.run_sweep(specs, swept=list(space.names)).results
    result = SearchResult(space=space)
    for index, spec, point in zip(space.all_indices(), specs, results):
        metrics = point.metrics
        missing = [name for name in OBJECTIVES if name not in metrics]
        if missing:
            raise ValueError(
                f"spec {spec.label!r} (arch={spec.arch!r}) has no "
                f"{missing} metrics — the search needs an accelerator arch"
            )
        result.points.append(
            SearchPoint(
                index=index,
                values=space.values(index),
                objectives={name: float(metrics[name]) for name in OBJECTIVES},
                label=spec.label,
            )
        )
    result.frontier = pareto_frontier(result.points)
    return result
